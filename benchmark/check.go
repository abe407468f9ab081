package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/theap"
	"repro/internal/vec"
)

// add records one returned neighbour. Timestamps are row numbers, so a
// result whose time differs from its id names the wrong vector.
func (s *sample) add(id int, t int64, dist float32) {
	if s.n == kNN {
		s.fail = "more than k results"
		return
	}
	if t != int64(id) && s.fail == "" {
		s.fail = fmt.Sprintf("result %d carries time %d", id, t)
	}
	s.ids[s.n], s.dists[s.n] = int32(id), dist
	s.n++
}

// check is the per-response gate: k results when the window holds at least
// k, every one inside [start, end), ascending by distance, none twice.
func (s *sample) check() {
	if s.fail != "" {
		return
	}
	want := int64(kNN)
	if held := s.end - s.start; held < want {
		want = held
	}
	if int64(s.n) != want {
		s.fail = fmt.Sprintf("%d results, window [%d,%d) holds enough for %d", s.n, s.start, s.end, want)
		return
	}
	for i := 0; i < s.n; i++ {
		id := int64(s.ids[i])
		switch {
		case id < s.start || id >= s.end:
			s.fail = fmt.Sprintf("result %d outside window [%d,%d)", id, s.start, s.end)
		case i > 0 && s.dists[i] < s.dists[i-1]:
			s.fail = "results not sorted by distance"
		}
		for j := 0; j < i && s.fail == ""; j++ {
			if s.ids[j] == s.ids[i] {
				s.fail = fmt.Sprintf("result %d returned twice", id)
			}
		}
		if s.fail != "" {
			return
		}
	}
}

// recallSample is how many responses per run are scored against brute
// force: enough that recall_at_10 repeats to three digits, few enough
// that the scan stays under a second.
const recallSample = 600

// scoreRecall brute-forces an evenly strided sample of the passed
// responses and returns their mean recall@10. A response whose reported
// distances disagree with the vectors it names is failed in place. Truth
// for a window ending at the acknowledged watermark includes every
// acknowledged vector, so an insert the search could not see costs recall.
func scoreRecall(in *inputs, samples []sample) (recall float64, scored int) {
	var pick []*sample
	for i := range samples {
		if samples[i].fail == "" {
			pick = append(pick, &samples[i])
		}
	}
	if len(pick) > recallSample {
		strided := make([]*sample, recallSample)
		for i := range strided {
			strided[i] = pick[i*len(pick)/recallSample]
		}
		pick = strided
	}
	if len(pick) == 0 {
		return 0, 0
	}
	qs := make([]dataset.Query, len(pick))
	for i, s := range pick {
		qs[i] = dataset.Query{W: in.queries[s.q].vector, K: kNN, Ts: s.start, Te: s.end}
	}
	truth := dataset.GroundTruth(in.data.Train, in.data.Times, vec.Euclidean, qs, runtime.NumCPU())
	var sum float64
	for i, s := range pick {
		got := make([]theap.Neighbor, s.n)
		for j := range got {
			got[j] = theap.Neighbor{ID: s.ids[j], Dist: s.dists[j]}
			exact := vec.SquaredL2(qs[i].W, in.data.Train.At(int(s.ids[j])))
			if math.Abs(float64(exact-s.dists[j])) > 1e-3*float64(exact)+1e-6 {
				s.fail = fmt.Sprintf("result %d reported at distance %g, is at %g", s.ids[j], s.dists[j], exact)
			}
		}
		sum += dataset.Recall(got, truth[i], kNN)
	}
	return sum / float64(len(pick)), len(pick)
}
