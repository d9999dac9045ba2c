package da

import (
	"math"
	"math/rand"
	"testing"

	"incranneal/internal/cpu"
)

// Raw draws at the edges of the Exp block: x = 1 − float64(raw)/2⁶³ is 1,
// the smallest x a chain reads (2⁻⁵³, from every raw that rounds to
// 2⁶³ − 1024), and HSqrt2 = √2/2 itself, the one x whose Frexp fraction
// f1 makes math.Log's amd64 assembly double where pure-Go log does not.
// The last two are raws that Float64 resamples, because they round to 2⁶³.
var (
	rawHSqrt2  = func() int64 { x := math.Sqrt2 / 2; return int64((1 - x) * (1 << 63)) }()
	rawSmallX  = int64(1<<63 - 1024)
	edgeRaws   = []int64{0, 1, 2, 511, 512, 1 << 52, 1 << 62, rawHSqrt2 - 1, rawHSqrt2, rawHSqrt2 + 1, rawSmallX - 1, rawSmallX, 1<<63 - 513}
	resampling = []int64{1<<63 - 512, math.MaxInt64}
)

// mathLogVariate is −math.Log(1 − float64(raw)/2⁶³), the value a chain
// reads from slot raw.
func mathLogVariate(raw int64) float64 {
	return -math.Log(1 - float64(raw)/(1<<63))
}

// checkExpBlock fails unless every slot of raw that Float64 does not
// resample holds math.Log's variate in exps, bit for bit.
func checkExpBlock(t *testing.T, level string, raw *[drawBlock]int64, exps *[drawBlock]float64) {
	t.Helper()
	for i, v := range raw {
		if float64(v)/(1<<63) == 1 {
			continue
		}
		if got, want := exps[i], mathLogVariate(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: raw %d (slot %d) gives %v (%#x), math.Log %v (%#x)", level, v, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestExpBlockMatchesMathLog runs the Exp block of every level this CPU
// has over the edge raws and random blocks, against math.Log per value.
func TestExpBlockMatchesMathLog(t *testing.T) {
	if x := 1 - float64(rawHSqrt2)/(1<<63); x != math.Sqrt2/2 {
		t.Fatalf("raw %d gives x = %v, want HSqrt2", rawHSqrt2, x)
	}
	if x := 1 - float64(rawSmallX)/(1<<63); x != 0x1p-53 {
		t.Fatalf("raw %d gives x = %v, want 2⁻⁵³", rawSmallX, x)
	}
	for _, v := range resampling {
		if float64(v)/(1<<63) != 1 {
			t.Fatalf("raw %d is not resampled by Float64", v)
		}
	}
	rng := rand.New(rand.NewSource(3))
	blocks := make([][drawBlock]int64, 40)
	for b := range blocks {
		for i := range blocks[b] {
			blocks[b][i] = rng.Int63()
		}
	}
	// The edges sit in every lane position of the first blocks.
	for b := 0; b < 8; b++ {
		for i := range blocks[b] {
			if (i+b)%3 == 0 {
				blocks[b][i] = edgeRaws[(i/3+b)%len(edgeRaws)]
			}
		}
	}
	blocks[0][5] = resampling[0]
	blocks[1][drawBlock-1] = resampling[1]
	cpu.Each(func(l cpu.Level) {
		for b := range blocks {
			var exps [drawBlock]float64
			expBlock(&exps, &blocks[b])
			checkExpBlock(t, l.String(), &blocks[b], &exps)
		}
	})
}

// plainSource hides a source's Uint64, so rand.Rand draws through Int63
// alone.
type plainSource struct{ src rand.Source }

func (p plainSource) Int63() int64    { return p.src.Int63() }
func (p plainSource) Seed(seed int64) { p.src.Seed(seed) }

// scriptedSource plays back a fixed list of raw values, cycling.
type scriptedSource struct {
	vals []int64
	pos  *int
}

func (s scriptedSource) Int63() int64 {
	v := s.vals[*s.pos%len(s.vals)]
	*s.pos++
	return v
}
func (s scriptedSource) Seed(int64) {}

// TestDrawsMatchRandRand runs a chain's draw order, Exp then Intn, over
// several blocks against the same calls on rand.Rand with an equal source:
// every variate must be bit-equal and every index equal. The bounds cover
// Int31n's mask for powers of two, its rejection loop (2³⁰+1 rejects about
// half its draws), Int63n above 2³¹−1, and a step's candidate counts; the
// sources cover a plain rand.Source and raws Float64 resamples.
func TestDrawsMatchRandRand(t *testing.T) {
	bounds := []int{1, 2, 3, 64, 384, 1 << 20, 1 << 30, 1<<30 + 1, math.MaxInt32, 1 << 33, 1<<40 + 7}
	script := []int64{rawHSqrt2, 1<<63 - 512, 5, math.MaxInt64, 1<<62 + 3, 0, rawSmallX, 1<<63 - 1<<32, 42}
	sources := []struct {
		name string
		new  func() rand.Source
	}{
		{"seeded", func() rand.Source { return rand.NewSource(7) }},
		{"plain", func() rand.Source { return plainSource{rand.NewSource(8)} }},
		{"zero", func() rand.Source { return zeroSource{} }},
		{"scripted", func() rand.Source { return scriptedSource{script, new(int)} }},
	}
	for _, src := range sources {
		for _, n := range bounds {
			want := rand.New(src.new())
			var d draws
			d.start(rand.New(src.new()))
			for step := 0; step < 3*drawBlock; step++ {
				w, g := expVariate(want), d.expVariate()
				if math.Float64bits(w) != math.Float64bits(g) {
					t.Fatalf("%s, n=%d, step %d: expVariate %v, rand.Rand gives %v", src.name, n, step, g, w)
				}
				if w, g := want.Intn(n), d.intn(n); w != g {
					t.Fatalf("%s, n=%d, step %d: intn %d, rand.Rand.Intn %d", src.name, n, step, g, w)
				}
			}
		}
	}
}

// BenchmarkExpBlock measures one refill's Exp(1) variates, a block of
// drawBlock slots, once per kernel level this CPU has.
func BenchmarkExpBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var raw [drawBlock]int64
	for i := range raw {
		raw[i] = rng.Int63()
	}
	var exps [drawBlock]float64
	cpu.Each(func(l cpu.Level) {
		b.Run(l.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expBlock(&exps, &raw)
			}
		})
	})
}
