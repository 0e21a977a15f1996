package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden -json reports under testdata/")

// TestGoldenJSON locks the -json lint report of every guest app byte for
// byte.  The report is pure static analysis (no MPI run, no profile),
// so any drift means the analyzer's findings or AVF forecast changed —
// which must be a deliberate, reviewed change.  Regenerate with:
//
//	go test ./cmd/faultlint -run TestGoldenJSON -update
func TestGoldenJSON(t *testing.T) {
	for _, app := range []string{"wavetoy", "minimd", "minicam"} {
		t.Run(app, func(t *testing.T) {
			var buf bytes.Buffer
			if code := run(app, options{jsonOut: true}, &buf); code != 0 {
				t.Fatalf("faultlint -json -app %s exited %d", app, code)
			}
			path := filepath.Join("testdata", app+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("-json report for %s drifted from %s\ngot:\n%s\nwant:\n%s",
					app, path, buf.Bytes(), want)
			}
		})
	}
}

// TestJSONDeterministic: two runs over the same app must serialize
// identically — the property the golden diff (and sharded campaign
// merges) rely on.
func TestJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if code := run("wavetoy", options{jsonOut: true}, &a); code != 0 {
		t.Fatalf("first run exited %d", code)
	}
	if code := run("wavetoy", options{jsonOut: true}, &b); code != 0 {
		t.Fatalf("second run exited %d", code)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("faultlint -json output is not deterministic across runs")
	}
}
