package fault

import (
	"sync"
	"testing"
)

// TestAtDeterministic: the decision at a hook point depends only on (seed,
// site, kind, coordinates) — repeated calls and fresh injectors with the
// same seed agree exactly.
func TestAtDeterministic(t *testing.T) {
	decide := func(seed int64) []bool {
		in := New(seed, Rule{Site: SiteApply, Kind: Panic, Rate: 0.25})
		var out []bool
		for a := 0; a < 8; a++ {
			for b := 0; b < 64; b++ {
				fired := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(*Injected); !ok {
								panic(r)
							}
							fired = true
						}
					}()
					in.At(SiteApply, a, b)
				}()
				out = append(out, fired)
			}
		}
		return out
	}
	a, b := decide(7), decide(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical injectors", i)
		}
	}
	n := 0
	for _, f := range a {
		if f {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Fatalf("rate 0.25 fired %d/%d times; the hash draw is degenerate", n, len(a))
	}
	c := decide(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical decisions")
	}
}

// TestNilInjectorInert: production call sites hook through a nil receiver.
func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	in.At(SiteApply, 0, 0) // must not panic
}

// TestCancelFiresOnce: concurrent Cancel faults invoke the registered
// function exactly once.
func TestCancelFiresOnce(t *testing.T) {
	in := New(1, Rule{Site: SiteSeed, Kind: Cancel, Rate: 1})
	var mu sync.Mutex
	calls := 0
	in.OnCancel(func() { mu.Lock(); calls++; mu.Unlock() })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { //det:ok poolonly test exercises the injector's own once-only cancel under contention; no engine state involved
			defer wg.Done()
			for i := 0; i < 100; i++ {
				in.At(SiteSeed, w, i)
			}
		}(w)
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("cancel fired %d times, want exactly 1", calls)
	}
	if in.Fired(Cancel) < 1 {
		t.Fatal("Fired(Cancel) did not count")
	}
}

// TestRateOneAlwaysFires pins the boundary: rate 1 fires at every visit,
// rate 0 never does.
func TestRateOneAlwaysFires(t *testing.T) {
	in := New(3, Rule{Site: SiteProbe, Kind: Delay, Rate: 1}, Rule{Site: SiteSeed, Kind: Delay, Rate: 0})
	in.delayDur = 0
	for i := 0; i < 10; i++ {
		in.At(SiteProbe, i, i)
		in.At(SiteSeed, i, i)
	}
	if got := in.Fired(Delay); got != 10 {
		t.Fatalf("Fired(Delay) = %d, want 10", got)
	}
}
