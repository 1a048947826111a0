package match

import (
	"math/rand"
	"testing"
)

// benchFixture builds a mid-size synthetic instance shaped like one paper
// data point: 60 users, 64 candidate eligibility lists of ~15 users each,
// 8 stations of capacity 3..10.
type benchFixture struct {
	numUsers int
	caps     []int
	lists    [][]int
	masks    []Bitset
}

func newBenchFixture() benchFixture {
	r := rand.New(rand.NewSource(9))
	f := benchFixture{numUsers: 60}
	for j := 0; j < 64; j++ {
		var el []int
		for u := 0; u < f.numUsers; u++ {
			if r.Intn(4) == 0 {
				el = append(el, u)
			}
		}
		f.lists = append(f.lists, el)
		f.masks = append(f.masks, BitsetFromSorted(f.numUsers, el))
	}
	for k := 0; k < 8; k++ {
		f.caps = append(f.caps, 3+r.Intn(8))
	}
	return f
}

// commit seeds the matcher with the first three stations, the committed
// state the greedy queries against mid-selection.
func (f benchFixture) commit(b *testing.B, m *Matcher) {
	b.Helper()
	for k := 0; k < 3; k++ {
		if _, err := m.Commit(f.caps[k], f.lists[k]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGain(b *testing.B) {
	f := newBenchFixture()
	m, err := NewMatcher(f.numUsers, len(f.caps))
	if err != nil {
		b.Fatal(err)
	}
	f.commit(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Gain(f.caps[3], f.lists[i%len(f.lists)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGainBound(b *testing.B) {
	f := newBenchFixture()
	m, err := NewMatcher(f.numUsers, len(f.caps))
	if err != nil {
		b.Fatal(err)
	}
	f.commit(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GainBound(f.caps[3], f.masks[i%len(f.masks)])
	}
}

// BenchmarkResetCommit measures one full oracle lifecycle per iteration —
// reset, then commit all eight stations — the per-subset cost the parallel
// enumeration pays with a reused matcher.
func BenchmarkResetCommit(b *testing.B) {
	f := newBenchFixture()
	m, err := NewMatcher(f.numUsers, len(f.caps))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(); err != nil {
			b.Fatal(err)
		}
		for k := range f.caps {
			if _, err := m.Commit(f.caps[k], f.lists[(i+k)%len(f.lists)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGainCommit measures the lazy greedy's pattern: query a station's
// gain, then commit that same station, for all eight stations of a fresh
// subset. The Commit adopts the Gain's pending augmentation.
func BenchmarkGainCommit(b *testing.B) {
	f := newBenchFixture()
	m, err := NewMatcher(f.numUsers, len(f.caps))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(); err != nil {
			b.Fatal(err)
		}
		for k := range f.caps {
			el := f.lists[(i+k)%len(f.lists)]
			g, err := m.Gain(f.caps[k], el)
			if err != nil {
				b.Fatal(err)
			}
			if c, err := m.Commit(f.caps[k], el); err != nil || c != g {
				b.Fatalf("Commit = %d, %v after Gain %d", c, err, g)
			}
		}
	}
}

// TestSteadyStateZeroAllocs gates the hot path at zero allocations once the
// journal has grown: Gain, Commit (adopted or not) and GainBound reuse the
// matcher's memory.
func TestSteadyStateZeroAllocs(t *testing.T) {
	f := newBenchFixture()
	m, err := NewMatcher(f.numUsers, len(f.caps))
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, op func(i int)) {
		t.Helper()
		i := 0
		if a := testing.AllocsPerRun(50, func() { op(i); i++ }); a != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, a)
		}
	}
	seed := func() {
		if err := m.Reset(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if _, err := m.Commit(f.caps[k], f.lists[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	seed()
	run("Gain", func(i int) {
		if _, err := m.Gain(f.caps[3], f.lists[i%len(f.lists)]); err != nil {
			t.Fatal(err)
		}
	})
	run("GainBound", func(i int) {
		m.GainBound(f.caps[3], f.masks[i%len(f.masks)])
	})
	run("Gain+Commit", func(i int) {
		seed()
		el := f.lists[i%len(f.lists)]
		if _, err := m.Gain(f.caps[3], el); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Commit(f.caps[3], el); err != nil {
			t.Fatal(err)
		}
	})
	run("Commit", func(i int) {
		seed()
		if _, err := m.Commit(f.caps[3], f.lists[i%len(f.lists)]); err != nil {
			t.Fatal(err)
		}
	})
}
