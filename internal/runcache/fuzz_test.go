package runcache

import (
	"testing"

	"repro/internal/workload"
)

// recordedSeeds returns encoded trace sets recorded from real generators
// (two suite workloads in rate mode) plus the degenerate shapes.
func recordedSeeds(f *testing.F) [][]byte {
	f.Helper()
	seeds := [][]byte{EncodeTraceSet(TraceSet{}), EncodeTraceSet(TraceSet{nil, {}})}
	for _, wl := range []string{"mcf", "triad"} {
		gens, err := workload.Rate(wl, 2, 200, 7)
		if err != nil {
			f.Fatal(err)
		}
		srcs := make([]Source, len(gens))
		for i, g := range gens {
			srcs[i] = g
		}
		seeds = append(seeds, EncodeTraceSet(RecordAll(srcs)))
	}
	return seeds
}

// FuzzDecodeTraceSet feeds arbitrary bytes to the disk tier's trace-set
// decoder. It must never panic, and whatever it accepts must survive an
// encode/decode round trip unchanged. Byte equality with the input is not
// required: a non-minimal varint decodes legally but re-encodes shorter.
func FuzzDecodeTraceSet(f *testing.F) {
	for _, s := range recordedSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := DecodeTraceSet(data)
		if err != nil {
			return
		}
		again, err := DecodeTraceSet(EncodeTraceSet(ts))
		if err != nil {
			t.Fatalf("re-encoded trace set fails to decode: %v", err)
		}
		if !equalTraceSets(ts, again) {
			t.Fatal("decode(encode(ts)) differs from ts")
		}
	})
}
