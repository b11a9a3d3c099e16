package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestScriptSmoke drives the checked-in demo through the checked-in smoke
// script — the same invocation CI runs and archives.
func TestScriptSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-program", "ms-queue",
		"-demo", "testdata/msqueue.demo",
		"-script", "testdata/smoke.script",
	}, strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"program   ms-queue",
		"race 0    data race on msq.value",
		"at tick 300",
		"last write to \"msq.value\"",
		"trace ticks 290..300",
		"checkpoint 0 converges bit-identically",
		"at end: tick 395 (replay complete)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript missing %q\ntranscript:\n%s", want, got)
		}
	}
}

// TestInlineCommands covers -e mode.
func TestInlineCommands(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-program", "ms-queue",
		"-demo", "testdata/msqueue.demo",
		"-e", "run-to-tick 50; reverse-step; where",
	}, strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "at tick 49") {
		t.Errorf("expected position 49 after reverse-step:\n%s", out.String())
	}
}

// TestREPL drives the interactive loop over a reader.
func TestREPL(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-program", "ms-queue",
		"-demo", "testdata/msqueue.demo",
	}, strings.NewReader("step\nwhere\nquit\n"), &out, &errOut)
	if code != 0 {
		t.Fatalf("run = %d, want 0\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "at tick 1") {
		t.Errorf("REPL transcript missing position:\n%s", out.String())
	}
}

// TestFailingScript: a script whose command fails must exit 1 (CI relies
// on scripted sessions being assertions).
func TestFailingScript(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-program", "ms-queue",
		"-demo", "testdata/msqueue.demo",
		"-e", "run-to-tick not-a-number",
	}, strings.NewReader(""), &out, &errOut)
	if code != 1 {
		t.Fatalf("run = %d, want 1\nstdout:\n%s", code, out.String())
	}
}

// TestUsageErrors: both the usage line and the unknown-program rejection
// exit 2 and list every name -program accepts, the synthetic Extras
// included.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-program", "nope", "-demo", "testdata/msqueue.demo"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, strings.NewReader(""), &out, &errOut); code != 2 {
			t.Fatalf("args %v: run = %d, want 2", args, code)
		}
		for _, want := range []string{"ms-queue", "needle"} {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("args %v: stderr missing %q:\n%s", args, want, errOut.String())
			}
		}
	}
}
