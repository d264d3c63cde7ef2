package similarity

import (
	"math/rand"
	"testing"
)

// TestWithinCrossCheckRandom cross-checks the banded Within against the full
// Levenshtein DP on random short strings over a small alphabet, for every
// k in 0..4. The small alphabet forces frequent partial matches, repeated
// characters and near-miss band boundaries, so the banded DP cannot silently
// drift from the reference implementation when it gets optimized later.
func TestWithinCrossCheckRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20110711)) // deterministic
	const alphabet = "abc "
	randString := func() string {
		n := rng.Intn(9) // 0..8
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 5000; i++ {
		a, b := randString(), randString()
		d := Levenshtein(a, b)
		for k := 0; k <= 4; k++ {
			if got, want := Within(a, b, k), d <= k; got != want {
				t.Fatalf("Within(%q, %q, %d) = %v, want %v (Levenshtein = %d)",
					a, b, k, got, want, d)
			}
		}
	}
}

// TestWithinCrossCheckAboveStackBound repeats the cross-check with
// thresholds above withinStackK, where Within's band rows no longer fit its
// stack arrays, on strings long enough for those thresholds to decide.
func TestWithinCrossCheckAboveStackBound(t *testing.T) {
	rng := rand.New(rand.NewSource(20110712)) // deterministic
	const alphabet = "ab"
	randString := func() string {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		a, b := randString(), randString()
		d := Levenshtein(a, b)
		for _, k := range []int{withinStackK, withinStackK + 1, 2 * withinStackK, 3 * withinStackK} {
			if got, want := Within(a, b, k), d <= k; got != want {
				t.Fatalf("Within(%q, %q, %d) = %v, want %v (Levenshtein = %d)",
					a, b, k, got, want, d)
			}
		}
	}
}

// TestWithinDoesNotAllocate pins the stack-backed band rows: a threshold up
// to withinStackK costs no heap allocation.
func TestWithinDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		Within("Robert Brady", "Rober Bradly", withinStackK)
	}); n != 0 {
		t.Fatalf("Within allocated %.0f times per call", n)
	}
}
