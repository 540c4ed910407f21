package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
)

// fullNorm is the oracle for the incremental snapshots: the whole-cache
// encoding the phase-skip engine compared byte for byte before caches
// were snapshotted incrementally.  Each live set appears as its index,
// its invalid-way count and its live tags oldest first; fully-invalid
// sets are skipped, and a terminator closes the list.
func (c *Cache) fullNorm(b []byte) []byte {
	for set := 0; set < c.sets; set++ {
		enc := c.encodeSet(set, nil)
		if len(enc) == 0 {
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(set))
		b = append(b, byte(c.cfg.Ways-len(enc)))
		for _, tag := range enc {
			b = binary.LittleEndian.AppendUint64(b, tag)
		}
	}
	return binary.LittleEndian.AppendUint32(b, ^uint32(0))
}

// snapWindow drives a cache's snapshots the way the phase-skip engine
// does: snapshot at each anchor, keep the last cap anchors and trim the
// log to the oldest one kept.  At every anchor it checks FFSame against
// the oracle for every pair of retained anchors.
type snapWindow struct {
	c       *Cache
	cap     int
	id      int64
	anchors []int64
	norms   [][]byte
	hashes  []uint64
	// equal counts pairs whose states matched, so a test can check it
	// exercised both answers.
	equal, pairs int
}

func (w *snapWindow) anchor(t testing.TB, gap int64) {
	t.Helper()
	w.id += gap
	h := w.c.FFSnapshot(w.id)
	w.anchors = append(w.anchors, w.id)
	w.norms = append(w.norms, w.c.fullNorm(nil))
	w.hashes = append(w.hashes, h)
	if len(w.anchors) > w.cap {
		w.anchors, w.norms, w.hashes = w.anchors[1:], w.norms[1:], w.hashes[1:]
	}
	w.c.FFTrim(w.anchors[0])
	for i := range w.anchors {
		for j := i + 1; j < len(w.anchors); j++ {
			want := bytes.Equal(w.norms[i], w.norms[j])
			if got := w.c.FFSame(w.anchors[i], w.anchors[j]); got != want {
				t.Fatalf("FFSame(%d, %d) = %v, full norms equal = %v", w.anchors[i], w.anchors[j], got, want)
			}
			if want && w.hashes[i] != w.hashes[j] {
				t.Fatalf("equal states at %d and %d hash differently", w.anchors[i], w.anchors[j])
			}
			w.pairs++
			if want {
				w.equal++
			}
		}
	}
}

// TestCacheSnapshotMatchesFullNorm runs seeded random iterative access
// patterns — a loop body repeated with occasional perturbations, body
// changes and flushes — and checks the incremental comparison against
// the full encodings for every pair of anchors in the window, including
// after the log has been trimmed many times over.
func TestCacheSnapshotMatchesFullNorm(t *testing.T) {
	var equal, pairs int
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		line := 16 << rng.IntN(4)
		ways := 1 + rng.IntN(8)
		sets := 1 << rng.IntN(7)
		c := MustNew(Config{SizeBytes: line * ways * sets, LineBytes: line, Ways: ways, Latency: 1})
		w := &snapWindow{c: c, cap: 2 + rng.IntN(10)}
		pool := 1 + rng.IntN(3*sets*ways)
		newBody := func() []uint64 {
			body := make([]uint64, 1+rng.IntN(4*sets*ways))
			for i := range body {
				body[i] = uint64(rng.IntN(pool))*uint64(line) + uint64(rng.IntN(line))
			}
			return body
		}
		body := newBody()
		for it := 0; it < 120; it++ {
			switch r := rng.IntN(100); {
			case r < 5:
				body = newBody()
			case r < 7:
				c.Flush()
			case r < 20:
				for range 1 + rng.IntN(3) {
					c.Access(uint64(rng.IntN(pool)) * uint64(line))
				}
			}
			for _, a := range body {
				c.Access(a)
			}
			w.anchor(t, 1+int64(rng.IntN(2)))
		}
		equal += w.equal
		pairs += w.pairs
	}
	if equal == 0 || equal == pairs {
		t.Fatalf("%d of %d anchor pairs equal: the test must exercise both answers", equal, pairs)
	}
}

// FuzzCacheSnapshot interprets its input as a cache geometry and an op
// stream — accesses to a small line pool, anchors and flushes — and
// checks the incremental comparison against the oracle at every anchor.
func FuzzCacheSnapshot(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 2, 240, 0, 1, 2, 240, 0, 1, 2, 240})
	f.Add([]byte{1, 0, 0, 8, 240, 8, 0, 240, 0, 8, 240, 250, 0, 8, 240})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := 1 + int(data[0]%8)
		sets := 1 << (data[1] % 5)
		const line = 64
		c := MustNew(Config{SizeBytes: line * ways * sets, LineBytes: line, Ways: ways, Latency: 1})
		w := &snapWindow{c: c, cap: 4}
		for _, b := range data[2:] {
			switch {
			case b >= 250:
				c.Flush()
			case b >= 240:
				w.anchor(t, 1)
			default:
				c.Access(uint64(b%48) * line)
			}
		}
	})
}

// touchOp is one step of a TouchRange property run.
type touchOp struct {
	rangeOp      bool
	core         int
	addr         uint64
	size, stride int64
}

func (o touchOp) String() string {
	if o.rangeOp {
		return fmt.Sprintf("range(core=%d base=%#x size=%d stride=%d)", o.core, o.addr, o.size, o.stride)
	}
	return fmt.Sprintf("load(core=%d addr=%#x)", o.core, o.addr)
}

// TestTouchRangeMatchesPlainLoop checks TouchRange against the plain
// per-address loop over random geometries, bases, footprints and
// preceding accesses: after every op both hierarchies must hold the same
// replacement state at every level, and afterwards answer a random probe
// sequence identically.  It also checks the shortcut fires on exact
// repeats under the stated conditions, and never on a same-base pass of
// another footprint or core.
func TestTouchRangeMatchesPlainLoop(t *testing.T) {
	fired := 0
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		line1 := 16 << rng.IntN(3)
		line2 := line1
		switch rng.IntN(6) {
		case 0:
			line2 *= 2
		case 1:
			line2 /= 2
		}
		geom := func(line, maxSets, maxWays int) Config {
			ways := 1 + rng.IntN(maxWays)
			return Config{SizeBytes: line * ways * (1 << rng.IntN(maxSets)), LineBytes: line, Ways: ways, Latency: 1}
		}
		cfg := HierConfig{
			Cores:      2,
			L1:         geom(line1, 4, 4),
			L2:         geom(line2, 6, 6),
			L3:         geom(line2*2, 7, 8),
			MemLatency: 100,
		}
		fast, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := NewHierarchy(cfg)
		l1Lines := fast.L1(0).Lines()
		bases := []uint64{0, uint64(rng.IntN(1 << 16)), 1 << 20}
		var ops []touchOp
		for range 40 {
			var op touchOp
			switch r := rng.IntN(10); {
			case r < 3:
				op = touchOp{core: rng.IntN(2), addr: uint64(rng.IntN(1 << 17))}
			default:
				op = touchOp{rangeOp: true, core: rng.IntN(2), addr: bases[rng.IntN(len(bases))],
					size:   int64(1+rng.IntN(3*l1Lines)) * int64(line1) / int64(1+rng.IntN(2)),
					stride: int64(line1)}
				switch rng.IntN(12) {
				case 0:
					op.stride /= 2
				case 1:
					op.stride *= 2
				case 2:
					op.stride *= int64(cfg.L2.SizeBytes / (cfg.L2.LineBytes * cfg.L2.Ways))
				}
			}
			// Repeat ranges often, as warm-up does.
			for n := 1 + rng.IntN(3); n > 0; n-- {
				ops = append(ops, op)
			}
		}
		var prev touchOp
		for i, op := range ops {
			if op.rangeOp {
				before := fast.L1(op.core).Stats().Accesses
				fast.TouchRange(op.core, op.addr, op.size, op.stride)
				skipped := fast.L1(op.core).Stats().Accesses == before
				for off := int64(0); off < op.size; off += op.stride {
					plain.LoadLatency(op.core, op.addr+uint64(off))
				}
				if skipped {
					fired++
					if i == 0 || prev != op {
						t.Fatalf("seed %d op %d: %v skipped without repeating the previous op %v", seed, i, op, prev)
					}
				}
			} else {
				fast.LoadLatency(op.core, op.addr)
				plain.LoadLatency(op.core, op.addr)
			}
			prev = op
			for lvl, pair := range [][2]*Cache{
				{fast.L1(0), plain.L1(0)}, {fast.L1(1), plain.L1(1)},
				{fast.L2(), plain.L2()}, {fast.L3(), plain.L3()},
			} {
				if !bytes.Equal(pair[0].fullNorm(nil), pair[1].fullNorm(nil)) {
					t.Fatalf("seed %d op %d (%v): level %d diverges from the plain loop\nconfig %+v", seed, i, op, lvl, cfg)
				}
			}
		}
		for range 200 {
			core, addr := rng.IntN(2), uint64(rng.IntN(1<<17))
			if a, b := fast.LoadLatency(core, addr), plain.LoadLatency(core, addr); a != b {
				t.Fatalf("seed %d: probe %#x latency %d, plain loop %d", seed, addr, a, b)
			}
		}
	}
	if fired == 0 {
		t.Fatal("the shortcut never fired")
	}
}

// TestTouchRangeRepeatRules pins the shortcut's firing on the default
// hierarchy: an exact repeat of a missing pass is skipped, while a pass
// at the same base with another footprint, on another core, or after an
// intervening access is not.
func TestTouchRangeRepeatRules(t *testing.T) {
	h, err := NewHierarchy(DefaultHierConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	const base, size, line = 1 << 36, 256 << 10, 128
	ran := func(core int, base uint64, size int64) bool {
		before := h.L1(core).Stats().Accesses
		h.TouchRange(core, base, size, line)
		return h.L1(core).Stats().Accesses != before
	}
	steps := []struct {
		name string
		core int
		base uint64
		size int64
		want bool
	}{
		{"first pass", 0, base, size, true},
		{"exact repeat", 0, base, size, false},
		{"repeat again", 0, base, size, false},
		{"same base, other footprint", 0, base, size / 2, true},
		{"back to the first range", 0, base, size, true},
		{"exact repeat after the switch", 0, base, size, false},
		{"other core", 1, base, size, true},
	}
	for _, s := range steps {
		if got := ran(s.core, s.base, s.size); got != s.want {
			t.Fatalf("%s: ran=%v, want %v", s.name, got, s.want)
		}
	}
	h.LoadLatency(1, 0)
	if !ran(1, base, size) {
		t.Fatal("a repeat after an intervening access was skipped")
	}
	// A pass over lines already in L1 hits, so a repeat of it is run.
	small := int64(4 << 10)
	for off := int64(0); off < small; off += line {
		h.LoadLatency(0, 1<<40+uint64(off))
	}
	ran(0, 1<<40, small)
	if !ran(0, 1<<40, small) {
		t.Fatal("a repeat of a pass that hit L1 was skipped")
	}
}
