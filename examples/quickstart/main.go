// Quickstart: stand up a complete WebGPU platform in-process, register a
// student, and walk the full §IV-A lab lifecycle — edit, compile, run
// against a dataset, answer the questions, submit for grading — exactly
// as a Coursera student's browser would, over real HTTP.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"webgpu/internal/labs"
	"webgpu/internal/platform"
)

func main() {
	// A v2 deployment: broker, polling workers, replicated DB.
	p := platform.New(platform.Options{Arch: platform.V2, Workers: 2})
	defer p.Close()
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	fmt.Printf("WebGPU platform up: %s, %d workers\n\n", p.Arch, p.Workers())

	// Register and keep the session token.
	var reg struct {
		Token string `json:"token"`
		User  struct {
			ID string `json:"id"`
		} `json:"user"`
	}
	post(ts.URL, "", "/api/v1/register",
		map[string]string{"name": "Ada Lovelace", "email": "ada@example.edu"}, &reg)
	fmt.Printf("registered student %s\n", reg.User.ID)

	// Fetch the Vector Addition lab: the skeleton is what the editor shows.
	var lab struct {
		Name     string   `json:"name"`
		Code     string   `json:"code"`
		Datasets []string `json:"datasets"`
	}
	get(ts.URL, reg.Token, "/api/v1/labs/vector-add", &lab)
	fmt.Printf("opened lab %q with %d datasets\n", lab.Name, len(lab.Datasets))

	// Write the kernel (here: the reference solution) and save it.
	solution := labs.ByID("vector-add").Reference
	post(ts.URL, reg.Token, "/api/v1/labs/vector-add/save",
		map[string]string{"source": solution}, nil)

	// Compile.
	var compileRes struct {
		Outcomes []struct {
			Compiled     bool   `json:"Compiled"`
			CompileError string `json:"CompileError"`
		} `json:"outcomes"`
	}
	post(ts.URL, reg.Token, "/api/v1/labs/vector-add/compile", nil, &compileRes)
	fmt.Printf("compiled: %v\n", compileRes.Outcomes[0].Compiled)

	// Run against dataset 0 and show the wbLog/wbTime trace.
	var att struct {
		Outcome struct {
			Correct      bool   `json:"Correct"`
			CheckMessage string `json:"CheckMessage"`
			Trace        string `json:"Trace"`
		} `json:"outcome"`
	}
	post(ts.URL, reg.Token, "/api/v1/labs/vector-add/attempt?dataset=0", nil, &att)
	fmt.Printf("attempt on dataset 0: correct=%v — %s\n",
		att.Outcome.Correct, att.Outcome.CheckMessage)
	fmt.Printf("--- lab output ---\n%s------------------\n", att.Outcome.Trace)

	// Answer the short-answer questions.
	post(ts.URL, reg.Token, "/api/v1/labs/vector-add/questions",
		map[string][]string{"answers": {
			"One add per element.",
			"Without it, tail threads write out of bounds.",
		}}, nil)

	// Submit for grading: every dataset runs, the rubric is applied, and
	// the grade is written back to the (simulated Coursera) gradebook.
	var sub struct {
		Grade struct {
			Total int `json:"total"`
			Max   int `json:"max"`
		} `json:"grade"`
	}
	post(ts.URL, reg.Token, "/api/v1/labs/vector-add/submit", nil, &sub)
	fmt.Printf("\nfinal grade: %d/%d\n", sub.Grade.Total, sub.Grade.Max)

	if g, err := p.Gradebook.Lookup(reg.User.ID, "vector-add"); err == nil {
		fmt.Printf("gradebook write-back confirmed: %d/%d recorded for %s\n",
			g.Total, g.Max, g.UserID)
	}
}

func post(base, token, path string, body, out interface{}) {
	req(base, token, http.MethodPost, path, body, out)
}

func get(base, token, path string, out interface{}) {
	req(base, token, http.MethodGet, path, nil, out)
}

func req(base, token, method, path string, body, out interface{}) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			log.Fatal(err)
		}
	}
	r, err := http.NewRequest(method, base+path, &buf)
	if err != nil {
		log.Fatal(err)
	}
	if token != "" {
		r.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(r)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	_, _ = raw.ReadFrom(resp.Body)
	if resp.StatusCode >= 300 {
		log.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, raw.String())
	}
	if out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			log.Fatalf("%s %s: %v in %s", method, path, err, raw.String())
		}
	}
}
