package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("a").Add(1)
		r.Gauge("b").Set(2)
		r.Histogram("c").Observe(3)
		if r.Snapshot() != nil {
			t.Error("nil registry snapshot not nil")
		}
		if r.Summary() != "" {
			t.Error("nil registry summary not empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil registry allocated %.1f times per run, want 0", allocs)
	}
}

func TestCounterConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			for i := 0; i < 1000; i++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 4000 {
		t.Fatalf("counter = %v, want 4000", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x")
	for _, v := range []float64{1, 2, 3, -6} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 0 || s.Min != -6 || s.Max != 3 || s.Mean != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	empty := r.Histogram("y").Snapshot()
	if empty.Count != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Fatalf("empty snapshot = %+v", empty)
	}
}

func TestSummaryAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("anneal.sweeps.da").Add(2000)
	r.Gauge("pipeline.partitions").Set(4)
	r.Histogram("pool.utilisation").Observe(0.75)
	sum := r.Summary()
	for _, want := range []string{"anneal.sweeps.da", "2000", "pipeline.partitions", "pool.utilisation", "count=1"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	// Sorted output: counters before histograms alphabetically here.
	if strings.Index(sum, "anneal") > strings.Index(sum, "pool") {
		t.Error("summary lines not sorted")
	}
	snap := r.Snapshot()
	if snap["anneal.sweeps.da"] != 2000.0 {
		t.Errorf("snapshot counter = %v", snap["anneal.sweeps.da"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

// TestEmptyHistogramExportsZeros is the regression test for the
// created-but-never-observed histogram export: Snapshot used to
// leak the ±Inf min/max sentinels, which encoding/json rejects. Every
// field must be exactly zero.
func TestEmptyHistogramExportsZeros(t *testing.T) {
	r := NewRegistry()
	r.Histogram("serve.queue.wait_ms") // created, never observed
	snap := r.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot with empty histogram not JSON-encodable: %v", err)
	}
	if strings.Contains(string(blob), "Inf") {
		t.Fatalf("snapshot leaks Inf: %s", blob)
	}
	hm, ok := snap["serve.queue.wait_ms"].(map[string]any)
	if !ok {
		t.Fatalf("histogram export missing: %v", snap)
	}
	for _, k := range []string{"count", "mean", "min", "max", "p50", "p90", "p99", "p999"} {
		v, ok := hm[k]
		if !ok {
			t.Fatalf("histogram export missing field %q: %v", k, hm)
		}
		switch x := v.(type) {
		case int64:
			if x != 0 {
				t.Errorf("empty histogram %s = %v, want 0", k, x)
			}
		case float64:
			if x != 0 {
				t.Errorf("empty histogram %s = %v, want 0", k, x)
			}
		}
	}
	// The summary path must render zeros too.
	if sum := r.Summary(); strings.Contains(sum, "Inf") {
		t.Fatalf("summary leaks Inf:\n%s", sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1000 observations 1..1000: p50 ≈ 500, p90 ≈ 900, p99 ≈ 990.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Log buckets bound relative error at 2^(1/8)-1 ≈ 9%; allow 10%.
	check := func(name string, got, want float64) {
		t.Helper()
		if got < want*0.99 || got > want*1.10 {
			t.Errorf("%s = %v, want within [%v, %v]", name, got, want*0.99, want*1.10)
		}
	}
	check("p50", s.P50, 500)
	check("p90", s.P90, 900)
	check("p99", s.P99, 990)
	if s.P999 > s.Max || s.P999 < s.P99 {
		t.Errorf("p999 = %v out of order (p99=%v max=%v)", s.P999, s.P99, s.Max)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 {
		t.Errorf("quantiles not monotone: %+v", s)
	}
}

func TestHistogramQuantileSingleValue(t *testing.T) {
	h := &Histogram{}
	h.Observe(42)
	s := h.Snapshot()
	// One observation: every quantile clamps to the exact value.
	for name, got := range map[string]float64{"p50": s.P50, "p90": s.P90, "p99": s.P99, "p999": s.P999} {
		if got != 42 {
			t.Errorf("%s = %v, want 42", name, got)
		}
	}
}

func TestHistogramNegativeAndZeroMasses(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{-5, -1, 0, 0, 10, 20} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Min != -5 || s.Max != 20 || s.Count != 6 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Ranks: 1-2 negative → min; 3-4 zero; 5-6 positive buckets.
	if got := s.P50; got != 0 {
		t.Errorf("p50 = %v, want 0 (rank 3 is the zero mass)", got)
	}
	if s.P99 < 20*0.99 || s.P99 > 20*1.10 {
		t.Errorf("p99 = %v, want ~20", s.P99)
	}
	buckets := h.CumulativeBuckets()
	if len(buckets) == 0 || buckets[0].Upper != 0 || buckets[0].Count != 4 {
		t.Fatalf("cumulative buckets = %+v, want le=0 bucket count 4 first", buckets)
	}
	last := buckets[len(buckets)-1]
	if last.Count != 6 {
		t.Fatalf("last cumulative bucket = %+v, want count 6", last)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Upper <= buckets[i-1].Upper || buckets[i].Count < buckets[i-1].Count {
			t.Fatalf("buckets not cumulative/ordered: %+v", buckets)
		}
	}
}

func TestHistogramObserveNoAllocs(t *testing.T) {
	h := &Histogram{}
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(3.5) })
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per run, want 0", allocs)
	}
}

func TestHistogramBucketGeometry(t *testing.T) {
	// Every bucket's upper bound must land back in a bucket with index >= its
	// own, and indexes must be monotone in the value.
	prev := -1
	for _, v := range []float64{1e-9, 0.001, 0.5, 1, 1.5, 2, 3, 10, 1000, 1e6, 1e12} {
		idx := histBucketIndex(v)
		if idx < prev {
			t.Fatalf("bucket index not monotone at %v: %d < %d", v, idx, prev)
		}
		prev = idx
		if up := histBucketUpper(idx); up < v && idx < histNBuckets-1 {
			t.Errorf("histBucketUpper(%d) = %v < value %v", idx, up, v)
		}
	}
}
