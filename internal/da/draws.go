package da

import (
	"math"
	"math/rand"
)

// drawBlock is how many raw draws a chain buffers. A step reads about
// two, so a block lasts about a hundred steps.
const drawBlock = 256

// draws buffers a chain's rand.Rand stream a block at a time and computes
// the block's Exp(1) variates in one pass (expBlock). Once a chain starts,
// nothing else reads its rng: anneal does not, and each SolvePT slot owns
// its stream. So drawing ahead changes only when the values are drawn:
// expVariate and intn return what −ln(1 − rng.Float64()) and rng.Intn
// would have, in the same order.
type draws struct {
	rng *rand.Rand
	// next is the first unread slot, drawBlock when the block is spent.
	next int
	// raw holds rng.Int63 values in stream order: one source step each,
	// for any rand.Source, as every rand.Rand method used here draws.
	raw [drawBlock]int64
	// exps[i] = −ln(1 − float64(raw[i])/2⁶³), the variate of slot i.
	exps [drawBlock]float64
}

// start points d at rng with an empty block.
func (d *draws) start(rng *rand.Rand) {
	d.rng = rng
	d.next = drawBlock
}

// refill draws the next block and its variates.
func (d *draws) refill() {
	for i := range d.raw {
		d.raw[i] = d.rng.Int63()
	}
	expBlock(&d.exps, &d.raw)
	d.next = 0
}

// int63 returns the next raw draw, rng.Int63's.
func (d *draws) int63() int64 {
	if d.next == drawBlock {
		d.refill()
	}
	v := d.raw[d.next]
	d.next++
	return v
}

// expVariate returns −ln(1 − rng.Float64()), an Exp(1) variate: the draw
// is mirrored onto (0,1], so it is never +Inf. A raw value that Float64
// would round to 1 is skipped, as Float64 resamples it.
func (d *draws) expVariate() float64 {
	for {
		if d.next == drawBlock {
			d.refill()
		}
		i := d.next
		d.next++
		if float64(d.raw[i])/(1<<63) != 1 {
			return d.exps[i]
		}
	}
}

// intn returns rng.Intn(n) for n > 0: Int31n's mask for a power of two and
// its rejection loop otherwise, and Int63n's above 2³¹−1.
func (d *draws) intn(n int) int {
	if n > math.MaxInt32 {
		return int(d.int63n(int64(n)))
	}
	n32 := int32(n)
	if n32&(n32-1) == 0 {
		return int(int32(d.int63()>>32) & (n32 - 1))
	}
	v := int32(d.int63() >> 32)
	// Int31n rejects v above 2³¹−1−(2³¹ mod n), which is at least 2³¹−n,
	// so a smaller v needs no division to be accepted.
	if int64(v) > 1<<31-int64(n) {
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n32))
		for v > max {
			v = int32(d.int63() >> 32)
		}
	}
	return int(v % n32)
}

// int63n is rand.Rand.Int63n over the buffered draws.
func (d *draws) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return d.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := d.int63()
	for v > max {
		v = d.int63()
	}
	return v % n
}

// expBlockGo sets exps[i] = −math.Log(1 − float64(raw[i])/2⁶³). It is the
// block wherever the assembly does not run (see expBlock), and that
// kernel's reference. A slot whose raw value Float64 resamples gets +Inf,
// and expVariate never reads it.
func expBlockGo(exps *[drawBlock]float64, raw *[drawBlock]int64) {
	for i, v := range raw {
		exps[i] = -math.Log(1 - float64(float64(v)/(1<<63)))
	}
}
