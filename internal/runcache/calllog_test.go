package runcache

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addrmap"
)

// appendEvent logs e into l.
func appendEvent(l *CallLog, e CallEvent) {
	if e.Refresh {
		l.Refresh(e.Sub, e.Now, e.RefIndex)
	} else {
		l.Activate(e.Sub, e.Now, e.Bank, e.Row)
	}
}

// decodeAll replays l to completion.
func decodeAll(t *testing.T, l *CallLog) []CallEvent {
	t.Helper()
	var got []CallEvent
	complete, err := l.Replay(func(e CallEvent) bool {
		got = append(got, e)
		return true
	})
	if err != nil || !complete {
		t.Fatalf("replay: complete=%v err=%v", complete, err)
	}
	return got
}

// TestCallLogRoundTrip is the codec's exactness property: random call
// sequences over every bank and sub-channel of the default geometry, rows
// across the whole bank, tick gaps past 2^32 in both directions and refresh
// indices past 2^32 decode back event for event, sealed or not.
func TestCallLogRoundTrip(t *testing.T) {
	g := addrmap.Default()
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		l := NewCallLog(g.SubChannels)
		var want []CallEvent
		now := make([]int64, g.SubChannels)
		ref := make([]uint64, g.SubChannels)
		for i := 0; i < 20000; i++ {
			e := CallEvent{Sub: rng.Intn(g.SubChannels)}
			switch rng.Intn(8) {
			case 0: // gap above 2^32, either direction
				now[e.Sub] += (int64(1)<<33 + rng.Int63n(1<<40)) * int64(1-2*rng.Intn(2))
			case 1: // full-range jump
				now[e.Sub] = int64(rng.Uint64())
			default:
				now[e.Sub] += rng.Int63n(2000)
			}
			e.Now = now[e.Sub]
			if rng.Intn(10) == 0 {
				e.Refresh = true
				switch rng.Intn(4) {
				case 0:
					ref[e.Sub] = uint64(1)<<32 + rng.Uint64()>>1
				case 1:
					ref[e.Sub] = rng.Uint64()
				default:
					ref[e.Sub]++
				}
				e.RefIndex = ref[e.Sub]
			} else {
				e.Bank = rng.Intn(g.Banks)
				e.Row = uint32(rng.Intn(g.Rows))
				if rng.Intn(4) == 0 {
					e.Row = uint32(g.Rows - 1)
				}
			}
			appendEvent(l, e)
			want = append(want, e)
		}
		if got := decodeAll(t, l); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: unsealed log decoded differently", trial)
		}
		l.Seal()
		if got := decodeAll(t, l); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sealed log decoded differently", trial)
		}
		var held int64
		for _, c := range l.chunks {
			held += int64(len(c))
		}
		if l.Events() != int64(len(want)) || l.Bytes() != held || len(l.chunks) < 2 {
			t.Fatalf("trial %d: Events %d Bytes %d in %d chunks for %d events in %d bytes",
				trial, l.Events(), l.Bytes(), len(l.chunks), len(want), held)
		}
	}
}

// TestCallLogExtremes round-trips the edge values of every field: ticks at
// both ends of int64, indices at both ends of uint64, the largest uint32
// row, and sub-channels and banks far beyond the default geometry.
func TestCallLogExtremes(t *testing.T) {
	want := []CallEvent{
		{Sub: 0, Now: math.MaxInt64, Bank: 0, Row: math.MaxUint32},
		{Sub: 0, Now: math.MinInt64, Bank: 0, Row: 0},
		{Sub: 0, Refresh: true, Now: math.MaxInt64, RefIndex: math.MaxUint64},
		{Sub: 0, Refresh: true, Now: math.MinInt64, RefIndex: 0},
		{Sub: 1000, Now: -1, Bank: 1 << 20, Row: math.MaxUint32},
		{Sub: 3, Refresh: true, Now: 0, RefIndex: math.MaxUint64},
		{Sub: 3, Refresh: true, Now: 0, RefIndex: 0},
		{Sub: 1000, Now: math.MaxInt64, Bank: 1 << 20, Row: 0},
	}
	l := NewCallLog(1001)
	for _, e := range want {
		appendEvent(l, e)
	}
	l.Seal()
	if got := decodeAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\nwant %+v", got, want)
	}
}

// TestCallLogReplayStopsAndRejectsCorruption checks that a visitor can stop
// a replay early and that a truncated or padded buffer is an error, never a
// panic or a silently short replay.
func TestCallLogReplayStopsAndRejectsCorruption(t *testing.T) {
	l := NewCallLog(2)
	for i := 0; i < 10; i++ {
		l.Activate(i%2, int64(100*i), i, uint32(7*i))
	}
	l.Refresh(1, 5000, 3)
	l.Seal()

	seen := 0
	complete, err := l.Replay(func(CallEvent) bool { seen++; return seen < 4 })
	if complete || err != nil || seen != 4 {
		t.Errorf("early stop: complete=%v err=%v seen=%d, want false, nil, 4", complete, err, seen)
	}

	if len(l.chunks) != 1 {
		t.Fatalf("%d chunks, want 1", len(l.chunks))
	}
	full := l.chunks[0]
	for cut := 0; cut < len(full); cut++ {
		bad := *l
		bad.chunks = [][]byte{full[:cut]}
		if complete, err := bad.Replay(func(CallEvent) bool { return true }); err == nil || complete {
			t.Fatalf("truncated to %d of %d bytes: complete=%v err=%v", cut, len(full), complete, err)
		}
	}
	padded := *l
	padded.chunks = [][]byte{append(append([]byte(nil), full...), 0)}
	if _, err := padded.Replay(func(CallEvent) bool { return true }); err == nil {
		t.Error("trailing byte decoded without error")
	}
}

// TestCallLogPanicsOnUnencodableCalls checks the encoder's preconditions: a
// sub-channel outside the log, a negative bank, a tag that would overflow 64
// bits, and an append after Seal are bugs in the caller and panic rather
// than log something the decoder would misread.
func TestCallLogPanicsOnUnencodableCalls(t *testing.T) {
	cases := map[string]func(l *CallLog){
		"negative sub":  func(l *CallLog) { l.Activate(-1, 0, 0, 0) },
		"sub past log":  func(l *CallLog) { l.Refresh(2, 0, 0) },
		"negative bank": func(l *CallLog) { l.Activate(0, 0, -1, 0) },
		"tag overflow":  func(l *CallLog) { l.Activate(1, 0, math.MaxInt64/2+1, 0) },
		"after sealing": func(l *CallLog) { l.Seal(); l.Activate(0, 0, 0, 0) },
	}
	for name, call := range cases {
		l := NewCallLog(2)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call(l)
		}()
	}
}

// TestLogCapacity pins how many baseline logs the log table is sized for.
func TestLogCapacity(t *testing.T) {
	for _, c := range []struct {
		accesses uint64
		want     int
	}{
		{8 * 600_000, 4},  // full-size 8-core counter grid
		{16 * 600_000, 2}, // full-size 16-core counter grid
		{0, 1},
		{1 << 62, 1},
	} {
		if got := LogCapacity(c.accesses); got != c.want {
			t.Errorf("LogCapacity(%d) = %d, want %d", c.accesses, got, c.want)
		}
	}
}
