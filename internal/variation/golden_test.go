package variation

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"smartndr/internal/cell"
	"smartndr/internal/core"
	"smartndr/internal/tech"
)

// TestMonteCarloGoldenStats pins the exact Monte Carlo output: the
// SHA-256 of the JSON-encoded Stats for a fixed smart-NDR tree at three
// seeds, at Workers=1 and Workers=2. The hashes were recorded before the
// timing kernel was levelized (bind once per batch, propagate per trial),
// so a pass proves the kernel computes the same program bit for bit, not
// merely a self-consistent one. The fixture tree is pinned separately:
// if treeGolden moves, tree construction changed, not Monte Carlo.
func TestMonteCarloGoldenStats(t *testing.T) {
	const treeGolden = "ee2badfeb0999ee22aa7b24ffdbb8683eaa25cf0ea01ff7e68d09e374b729428"
	golden := map[int64]string{
		1: "ae77cd8247777c1002081662687ad8c8b6c956f845c42427892e53c2adb5d20b",
		2: "16d5d1d71856512bd76010286a0c3c594870e8681bbbdb9ed9572416400b0846",
		3: "399ec2a746acbb64e633e9eb3af9745f4431789782b175da69b88201a15b5f55",
	}
	te := tech.Tech45()
	lib := cell.Default45()
	tr := builtTree(t, 200, 29, 1800, te, lib)
	if _, err := core.Optimize(tr, te, lib, core.Config{}); err != nil {
		t.Fatal(err)
	}
	if got := hashJSON(t, tr); got != treeGolden {
		t.Fatalf("fixture tree hash = %s, want %s (tree construction or the optimizer changed; the Stats pins below assume the old tree)", got, treeGolden)
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 2} {
			p := Defaults(seed)
			p.Samples = 40
			p.Workers = workers
			st, err := MonteCarlo(tr, te, lib, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashJSON(t, st); got != golden[seed] {
				t.Errorf("seed %d workers %d: Stats hash = %s, want golden %s", seed, workers, got, golden[seed])
			}
		}
	}
}

func hashJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
