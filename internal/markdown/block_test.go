package markdown

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSyncBlock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "DOC.md")
	doc := "# Doc\n<!-- gen:list -->\na\nb\n<!-- /gen:list -->\ntail\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SyncBlock(path, "gen:list", "a\nb\n", false); err != nil {
		t.Fatalf("matching block: %v", err)
	}
	err := SyncBlock(path, "gen:list", "a\nc\n", false)
	if err == nil || !strings.Contains(err.Error(), "DOC.md block gen:list is stale: block line 2: recorded \"b\", now \"c\"") {
		t.Fatalf("stale block error = %v", err)
	}
	err = SyncBlock(path, "gen:list", "a\nb\nc\n", false)
	if err == nil || !strings.Contains(err.Error(), "block line 3: recorded \"\", now \"c\"") {
		t.Fatalf("grown block error = %v", err)
	}
	if err := SyncBlock(path, "gen:list", "a\nc\n", true); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if want := strings.Replace(doc, "b\n", "c\n", 1); string(got) != want {
		t.Fatalf("update wrote %q, want %q", got, want)
	}
	for _, tag := range []string{"gen:other", "gen:li"} {
		if err := SyncBlock(path, tag, "", true); err == nil || !strings.Contains(err.Error(), "has no") {
			t.Errorf("%s: error = %v, want a missing-block error", tag, err)
		}
	}
	if err := os.WriteFile(path, []byte("<!-- gen:list -->\nunclosed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := SyncBlock(path, "gen:list", "x\n", true); err == nil {
		t.Error("an unclosed block was rewritten")
	}
}
