package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"affinityalloc/internal/affinityd"
	"affinityalloc/internal/cliconf"
)

// TestRecoveryErrorNamesPrefixOnce: a journal that fails verification
// stops startup with one stderr line that carries the daemon's prefix
// once, names the phase, and keeps the *JournalError for errors.As. The
// line the replay goroutine prints for a failed replay reads the same.
func TestRecoveryErrorNamesPrefixOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m000001.waj")
	// A v2 header, then a frame whose length fails its check: record 0,
	// which the journal numbers line 2.
	journal := append([]byte("affinityd-journal/v2 m000001\n"), 9, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3)
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	cc := cliconf.Register(flag.NewFlagSet("affinityd", flag.ContinueOnError),
		cliconf.FlagSeed|cliconf.FlagPolicy|cliconf.FlagFaults)

	err := run(cc, "127.0.0.1:0", dir, false, false, 0)
	var jerr *affinityd.JournalError
	if !errors.As(err, &jerr) {
		t.Fatalf("run on a corrupt journal returned %v, want a *JournalError", err)
	}
	const reason = ":2: frame header fails its check"
	if got, want := errLine(err), "affinityd: recovery: journal "+path+reason; got != want {
		t.Errorf("startup error line\n got %q\nwant %q", got, want)
	}
	if got, want := errLine(&phaseError{"recovery failed", jerr}), "affinityd: recovery failed: journal "+path+reason; got != want {
		t.Errorf("replay failure line\n got %q\nwant %q", got, want)
	}
	if got, want := errLine(errors.New("listen tcp: address in use")), "affinityd: listen tcp: address in use"; got != want {
		t.Errorf("plain error line %q, want %q", got, want)
	}
}
