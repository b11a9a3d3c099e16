package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/explore"
)

// TestRacehuntSmoke is the CI smoke flow: a small budget over ms-queue
// with 4 workers must run trials, find at least one failure, and emit a
// corpus plus a valid minimized demo.
func TestRacehuntSmoke(t *testing.T) {
	dir := t.TempDir()
	demoPath := filepath.Join(dir, "race.demo")
	corpusPath := filepath.Join(dir, "corpus.json")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-program", "ms-queue", "-strategies", "rnd",
		"-trials", "16", "-workers", "4", "-seed", "7",
		"-min-budget", "16",
		"-corpus", corpusPath, "-o", demoPath,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("racehunt exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "ran 16 trials") {
		t.Fatalf("expected 16 trials to run:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "failure 0:") {
		t.Fatalf("ms-queue sweep found no failure:\n%s", out.String())
	}

	d, err := demo.ReadFile(demoPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("written demo does not validate: %v", err)
	}

	c, err := explore.ReadCorpusFile(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if c.Program != "ms-queue" || len(c.Entries) == 0 {
		t.Fatalf("corpus malformed: %+v", c)
	}
	for i, e := range c.Entries {
		cd, err := e.Decode()
		if err != nil {
			t.Fatalf("corpus entry %d: %v", i, err)
		}
		if err := cd.Validate(); err != nil {
			t.Fatalf("corpus entry %d demo invalid: %v", i, err)
		}
		// The repro field is the exact tsandebug invocation for this
		// failure: extracted demo path plus the raced variable as the
		// reverse-continue target.
		if !strings.HasPrefix(e.Repro, "tsandebug -program ms-queue -demo "+e.DemoPath) {
			t.Fatalf("corpus entry %d: malformed repro %q", i, e.Repro)
		}
		if _, err := os.Stat(filepath.Join(dir, e.DemoPath)); err != nil {
			t.Fatalf("corpus entry %d: extracted demo missing: %v", i, err)
		}
		if len(e.Races) > 0 && !strings.Contains(e.Repro, "reverse-continue msq.") {
			t.Fatalf("corpus entry %d: repro lacks raced-variable reverse-continue: %q", i, e.Repro)
		}
	}
}

func TestRacehuntUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // in stderr
	}{
		// The rejection lists every name -program accepts, the synthetic
		// Extras included.
		{[]string{"-program", "nope"}, "ms-queue needle"},
		{[]string{"-strategies", "bogus"}, `unknown strategy "bogus"`},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", tc.args, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), tc.want) {
			t.Errorf("args %v: stderr missing %q:\n%s", tc.args, tc.want, errOut.String())
		}
	}
}

func TestRacehuntNoFailureExit(t *testing.T) {
	// The barrier program is race-free under the random strategy with a
	// tiny budget almost always; -o with no failure must exit nonzero so
	// scripts notice. If the sweep does find a failure the demo must
	// exist instead — accept either, but the exit code and file state
	// have to agree.
	dir := t.TempDir()
	demoPath := filepath.Join(dir, "none.demo")
	var out, errOut bytes.Buffer
	code := run([]string{
		"-program", "barrier", "-strategies", "rnd",
		"-trials", "2", "-workers", "1", "-minimize=false", "-o", demoPath,
	}, &out, &errOut)
	_, statErr := os.Stat(demoPath)
	switch code {
	case 0:
		if statErr != nil {
			t.Fatalf("exit 0 but no demo written:\n%s", out.String())
		}
	case 1:
		if statErr == nil {
			t.Fatalf("exit 1 but a demo was written:\n%s%s", out.String(), errOut.String())
		}
	default:
		t.Fatalf("unexpected exit %d:\n%s%s", code, out.String(), errOut.String())
	}
}
