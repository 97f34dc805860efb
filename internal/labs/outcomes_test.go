package labs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// labOutcomes is one lab's golden: every dataset's outcome of each of
// its sources, keyed "Reference" and "Skeleton", with WallTime zeroed.
type labOutcomes map[string][]*Outcome

// TestOutcomesGolden pins what every lab does with its Reference and its
// Skeleton on every dataset, field by field: verdict, check message,
// fault, trace, simulated time and each launch's counters. The goldens
// live in testdata/outcomes and are rewritten with -update. Datasets
// run one after another on one device set, so nothing but the
// simulator decides an outcome.
func TestOutcomesGolden(t *testing.T) {
	for _, l := range All() {
		t.Run(l.ID, func(t *testing.T) {
			got := labOutcomes{}
			for name, src := range map[string]string{"Reference": l.Reference, "Skeleton": l.Skeleton} {
				// input-binning's scatterBin claims output slots with a
				// global atomicAdd, so with blocks running concurrently its
				// Reference's coalescing follows their interleaving
				// (ROADMAP item 1); it has no golden until that is fixed.
				if l.ID == "input-binning" && name == "Reference" {
					continue
				}
				outs := RunAll(context.Background(), l, src, NewDeviceSet(max(l.NumGPUs, 1)), 0)
				for _, o := range outs {
					o.WallTime = 0
				}
				got[name] = outs
			}
			path := filepath.Join("testdata", "outcomes", l.ID+".json")
			if *update {
				data, err := json.MarshalIndent(got, "", "\t")
				if err == nil {
					err = os.WriteFile(path, append(data, '\n'), 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test ./internal/labs -update to write it)", err)
			}
			var want labOutcomes
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, name := range []string{"Reference", "Skeleton"} {
				if len(got[name]) != len(want[name]) {
					t.Errorf("%s %s: %d outcomes, golden has %d", l.ID, name, len(got[name]), len(want[name]))
					continue
				}
				for ds := range got[name] {
					field, g, w := firstDiff("Outcome", reflect.ValueOf(got[name][ds]), reflect.ValueOf(want[name][ds]))
					if field != "" {
						t.Errorf("%s dataset %d %s: %s = %#v, golden %#v", l.ID, ds, name, field, g, w)
					}
				}
			}
		})
	}
}

// firstDiff walks got and want in field order and returns the path of
// the first field whose values differ, with both values; "" if none.
func firstDiff(path string, got, want reflect.Value) (string, any, any) {
	switch got.Kind() {
	case reflect.Pointer:
		if got.IsNil() || want.IsNil() {
			if got.IsNil() != want.IsNil() {
				return path, got.Interface(), want.Interface()
			}
			return "", nil, nil
		}
		return firstDiff(path, got.Elem(), want.Elem())
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if f, g, w := firstDiff(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i)); f != "" {
				return f, g, w
			}
		}
		return "", nil, nil
	case reflect.Slice:
		for i := 0; i < min(got.Len(), want.Len()); i++ {
			if f, g, w := firstDiff(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i)); f != "" {
				return f, g, w
			}
		}
		if got.Len() != want.Len() {
			return path + ".len", got.Len(), want.Len()
		}
		return "", nil, nil
	}
	if !reflect.DeepEqual(got.Interface(), want.Interface()) {
		return path, got.Interface(), want.Interface()
	}
	return "", nil, nil
}
