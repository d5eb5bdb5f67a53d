package runcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// CallLog is the compact, append-only record of every mitigator call an
// unprotected baseline made: each OnActivate(now, bank, row) and each
// OnRefresh(now, index), tagged with its sub-channel, in global call order.
// A mitigated run on the same machine replays it through fresh trackers; if
// none of them ever answers, the mitigated schedule is the baseline's.
//
// Each event is a sequence of uvarints. The first is a tag: (bank·subs +
// sub)·2 for an activation and sub·2 + 1 for a refresh, so one byte names
// the kind, sub-channel and bank of a typical machine. An activation then
// carries its row as a zigzag delta from the previous row of that
// (sub-channel, bank); every event carries its tick as a zigzag delta from
// the previous event's; a refresh carries its index's zigzag distance from
// the one after the previous refresh of that sub-channel. No field has a
// fixed width, and the wrapping deltas make the decode exact for any int64
// ticks and uint64 indices. A benign-workload activation takes about 5
// bytes, and the bytes live in fixed-size chunks, so a log never holds the
// slack of a doubled buffer.
//
// A CallLog is not safe for concurrent appends; a sealed log (see Seal) is
// read-only and safe to replay from several goroutines.
type CallLog struct {
	subs   int
	chunks [][]byte
	size   int64
	events int64
	// banks is one past the largest bank logged; the decoder rejects
	// anything outside it as corruption.
	banks int

	enc *callState // nil once sealed
}

// callChunk is the capacity of one chunk of encoded events; an event never
// spans two chunks.
const callChunk = 64 << 10

// maxCallEvent bounds one encoded event: three uvarints of at most 10 bytes.
const maxCallEvent = 3 * binary.MaxVarintLen64

// NewCallLog returns an empty log for a machine of subs sub-channels.
func NewCallLog(subs int) *CallLog {
	if subs <= 0 {
		panic(fmt.Sprintf("runcache: call log for %d sub-channels", subs))
	}
	return &CallLog{subs: subs, enc: newCallState(subs)}
}

// callState is the delta base shared by the encoder and the decoder.
type callState struct {
	tick    int64      // previous event's tick
	nextRef []uint64   // expected next refresh index per sub-channel
	row     [][]uint32 // previous row per (sub-channel, bank)
}

func newCallState(subs int) *callState {
	return &callState{nextRef: make([]uint64, subs), row: make([][]uint32, subs)}
}

// rowOf returns the previous-row slot of (sub, bank), growing only that
// sub-channel's bank slice: the state is dense in the bank index, which
// suits real geometries (tens of banks).
func (s *callState) rowOf(sub, bank int) *uint32 {
	if r := s.row[sub]; bank >= len(r) {
		s.row[sub] = append(r, make([]uint32, bank+1-len(r))...)
	}
	return &s.row[sub][bank]
}

// tickDelta folds the wrapping distance from the previous event's tick.
func (s *callState) tickDelta(now int64) uint64 {
	d := zigzag(int64(uint64(now) - uint64(s.tick)))
	s.tick = now
	return d
}

// room returns the tail chunk with space for one more event, starting a new
// chunk when the tail is full.
func (l *CallLog) room(sub int) []byte {
	if l.enc == nil {
		panic("runcache: append to a sealed CallLog")
	}
	if sub < 0 || sub >= l.subs {
		panic(fmt.Sprintf("runcache: sub-channel %d outside a %d-sub-channel call log", sub, l.subs))
	}
	if n := len(l.chunks); n > 0 {
		if c := l.chunks[n-1]; cap(c)-len(c) >= maxCallEvent {
			return c
		}
	}
	l.chunks = append(l.chunks, make([]byte, 0, callChunk))
	return l.chunks[len(l.chunks)-1]
}

// commit stores the grown tail chunk.
func (l *CallLog) commit(before int, c []byte) {
	l.chunks[len(l.chunks)-1] = c
	l.size += int64(len(c) - before)
	l.events++
}

// Activate appends one OnActivate(now, bank, row) call of sub-channel sub.
// It panics if sub is outside the log's sub-channels, bank is negative, or
// the tag (bank·subs + sub)·2 overflows 64 bits.
func (l *CallLog) Activate(sub int, now int64, bank int, row uint32) {
	c := l.room(sub)
	hi, lo := bits.Mul64(uint64(bank), uint64(l.subs))
	if bank < 0 || hi != 0 || lo >= 1<<63-uint64(sub) {
		panic(fmt.Sprintf("runcache: bank %d does not fit a call-log tag", bank))
	}
	if bank >= l.banks {
		l.banks = bank + 1
	}
	s := l.enc
	prev := s.rowOf(sub, bank)
	n := len(c)
	c = binary.AppendUvarint(c, (lo+uint64(sub))<<1)
	c = binary.AppendUvarint(c, zigzag(int64(row)-int64(*prev)))
	c = binary.AppendUvarint(c, s.tickDelta(now))
	*prev = row
	l.commit(n, c)
}

// Refresh appends one OnRefresh(now, idx) call of sub-channel sub.
func (l *CallLog) Refresh(sub int, now int64, idx uint64) {
	c := l.room(sub)
	s := l.enc
	n := len(c)
	c = binary.AppendUvarint(c, uint64(sub)<<1|1)
	c = binary.AppendUvarint(c, s.tickDelta(now))
	c = binary.AppendUvarint(c, zigzag(int64(idx-s.nextRef[sub])))
	s.nextRef[sub] = idx + 1
	l.commit(n, c)
}

// Seal ends recording: it drops the encoder state and trims the tail chunk,
// so a held log costs Bytes plus a little per chunk.
func (l *CallLog) Seal() {
	if n := len(l.chunks); n > 0 {
		l.chunks[n-1] = append([]byte(nil), l.chunks[n-1]...)
	}
	l.enc = nil
}

// Bytes reports the encoded size.
func (l *CallLog) Bytes() int64 { return l.size }

// Events reports how many calls the log holds.
func (l *CallLog) Events() int64 { return l.events }

// CallEvent is one decoded mitigator call. Refresh selects which fields
// apply: Bank and Row for an activation, RefIndex for a refresh.
type CallEvent struct {
	Sub      int
	Refresh  bool
	Now      int64
	Bank     int
	Row      uint32
	RefIndex uint64
}

var errCorruptLog = errors.New("runcache: corrupt call log")

// Replay decodes the log and calls visit with every event in call order,
// stopping early when visit returns false. It reports whether the whole log
// was visited; an error means the bytes do not decode (a bug, since logs
// never leave the process).
func (l *CallLog) Replay(visit func(CallEvent) bool) (complete bool, err error) {
	s := newCallState(l.subs)
	chunks := l.chunks
	var b []byte
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	subs := uint64(l.subs)
	for i := int64(0); i < l.events; i++ {
		for len(b) == 0 && len(chunks) > 0 {
			b, chunks = chunks[0], chunks[1:]
		}
		tag, ok := next()
		if !ok {
			return false, errCorruptLog
		}
		var e CallEvent
		if tag&1 == 1 {
			dt, ok1 := next()
			dr, ok2 := next()
			if !ok1 || !ok2 || tag>>1 >= subs {
				return false, errCorruptLog
			}
			e.Sub, e.Refresh = int(tag>>1), true
			e.RefIndex = s.nextRef[e.Sub] + uint64(unzigzag(dr))
			s.nextRef[e.Sub] = e.RefIndex + 1
			e.Now = int64(uint64(s.tick) + uint64(unzigzag(dt)))
		} else {
			dr, ok1 := next()
			dt, ok2 := next()
			bank := tag >> 1 / subs
			if !ok1 || !ok2 || bank >= uint64(l.banks) {
				return false, errCorruptLog
			}
			e.Sub, e.Bank = int(tag>>1%subs), int(bank)
			prev := s.rowOf(e.Sub, e.Bank)
			row := int64(*prev) + unzigzag(dr)
			if row < 0 || row > math.MaxUint32 {
				return false, errCorruptLog
			}
			e.Row = uint32(row)
			*prev = e.Row
			e.Now = int64(uint64(s.tick) + uint64(unzigzag(dt)))
		}
		s.tick = e.Now
		if !visit(e) {
			return false, nil
		}
	}
	if len(b) != 0 || len(chunks) != 0 {
		return false, errCorruptLog
	}
	return true, nil
}
