package robust

import (
	"context"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFailPolicyRoundTrip(t *testing.T) {
	for _, p := range []FailPolicy{FailFast, SkipFailed} {
		got, err := ParseFailPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseFailPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFailPolicy("explode"); err == nil {
		t.Fatal("ParseFailPolicy accepted nonsense")
	}
}

func TestBackoffDelaySequence(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for r, w := range want {
		if got := b.Delay(r); got != w {
			t.Errorf("Delay(%d) = %v, want %v", r, got, w)
		}
	}
	// Determinism: same retry, same delay — always.
	if b.Delay(3) != b.Delay(3) {
		t.Fatal("Delay is not deterministic")
	}
	// The zero value waits nothing; huge retry counts neither overflow
	// nor underflow.
	if (Backoff{}).Delay(5) != 0 {
		t.Fatal("zero Backoff delays")
	}
	if got := b.Delay(200); got != time.Second {
		t.Fatalf("Delay(200) = %v, want cap", got)
	}
	if got := (Backoff{Base: time.Hour}).Delay(63); got <= 0 {
		t.Fatalf("uncapped overflow: Delay = %v", got)
	}
}

func TestBackoffSleepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := Backoff{Base: time.Hour}
	start := time.Now()
	if err := b.Sleep(ctx, 0); err == nil {
		t.Fatal("Sleep ignored cancellation")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled Sleep blocked")
	}
}

func TestKeyIsStableAndInjective(t *testing.T) {
	a := Key("salt", "sys", "wl")
	if a != Key("salt", "sys", "wl") {
		t.Fatal("Key is not deterministic")
	}
	// Length prefixing: concatenation ambiguity must not collide.
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal(`Key("ab","c") == Key("a","bc")`)
	}
	if len(a) != 32 {
		t.Fatalf("key length %d, want 32", len(a))
	}
}

func TestCommitFile(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "out.tmp")
	path := filepath.Join(dir, "out.jsonl")
	if err := os.WriteFile(tmp, []byte("done\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CommitFile(tmp, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "done\n" {
		t.Fatalf("content %q err %v", data, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file survived the commit")
	}
}

// digestFrom recovers a panic raised by f and digests its stack,
// stopping at this helper.
func digestFrom(f func()) (digest string) {
	defer func() {
		if recover() != nil {
			digest = Digest(debug.Stack(), "digestFrom")
		}
	}()
	f()
	return ""
}

func panicSiteA() { panic("boom A") }
func panicSiteB() { panic("boom B") }
func viaHelper()  { panicSiteA() }

// The digest must identify the panic site's call chain — identical for
// the same chain even from different goroutines, different for
// different chains.
func TestDigestDeterministicAcrossGoroutines(t *testing.T) {
	d1 := digestFrom(panicSiteA)
	var d2 string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d2 = digestFrom(panicSiteA)
	}()
	wg.Wait()
	if d1 == "" || d1 != d2 {
		t.Fatalf("same chain, different digests: %q vs %q", d1, d2)
	}
	if db := digestFrom(panicSiteB); db == d1 {
		t.Fatal("different sites share a digest")
	}
	if dh := digestFrom(viaHelper); dh == d1 {
		t.Fatal("different chains to the same site share a digest")
	}
	if len(d1) != 16 || strings.Trim(d1, "0123456789abcdef") != "" {
		t.Fatalf("digest is not 16 hex digits: %q", d1)
	}
}
