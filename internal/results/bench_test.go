package results

import (
	"fmt"
	"sync"
	"testing"
)

// benchIngest drives nProducers goroutines calling Store.Add on distinct
// runs into the backend and reports records/sec. The store's target for
// the file backend is >= 100k records/sec on one vCPU (run with
// GOMAXPROCS=1); this is a developer benchmark, and nothing gates it.
func benchIngest(b *testing.B, backend Backend, nProducers int) {
	s := NewStore(backend)

	// Pre-build the distinct runs so the timed section is the ingestion
	// path itself — hash, commit, ack — not producer-side struct
	// construction.
	per := b.N/nProducers + 1
	runs := make([][]*Run, nProducers)
	for p := range runs {
		runs[p] = make([]*Run, per)
		for i := range runs[p] {
			runs[p][i] = &Run{
				Kind:   "bench",
				Name:   fmt.Sprintf("ingest-%d-%d", p, i),
				Config: map[string]string{"producer": fmt.Sprint(p)},
				Records: []Record{
					{Name: "value", Value: float64(i)},
					{Name: "producer", Value: float64(p)},
				},
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()

	var wg sync.WaitGroup
	for p := 0; p < nProducers; p++ {
		wg.Add(1)
		go func(mine []*Run) {
			defer wg.Done()
			for _, r := range mine {
				if ack := s.Add(r); ack.Err != nil {
					b.Error(ack.Err)
					return
				}
			}
		}(runs[p])
	}
	wg.Wait()
	b.StopTimer()

	b.ReportMetric(float64(nProducers*per)/b.Elapsed().Seconds(), "records/sec")
}

func BenchmarkIngestFile(b *testing.B) {
	f, err := OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	benchIngest(b, f, 64)
}

func BenchmarkIngestMem(b *testing.B) {
	benchIngest(b, NewMem(), 64)
}
