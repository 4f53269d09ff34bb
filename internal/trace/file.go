// Trace serialization: traces can be written to and replayed from a
// compact binary stream, so expensive generator runs can be captured
// once and re-simulated under many configurations (or exchanged between
// machines — the format is fixed-endian).

package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"vdirect/internal/addr"
)

// File format: a magic header, a length-prefixed name, an event count,
// then packed events. All integers little-endian.
var fileMagic = [8]byte{'v', 'd', 't', 'r', 'a', 'c', 'e', '1'}

// ErrBadTraceFile reports a corrupt or foreign stream.
var ErrBadTraceFile = errors.New("trace: not a vdirect trace stream")

const (
	flagWrite = 1 << 0
)

// WriteTo serializes the slice to w.
func (s *Slice) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	if err := count(bw.Write(fileMagic[:])); err != nil {
		return written, err
	}
	name := []byte(s.name)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(name)))
	if err := count(bw.Write(hdr[:])); err != nil {
		return written, err
	}
	if err := count(bw.Write(name)); err != nil {
		return written, err
	}
	var n8 [8]byte
	binary.LittleEndian.PutUint64(n8[:], uint64(len(s.evs)))
	if err := count(bw.Write(n8[:])); err != nil {
		return written, err
	}
	// Event record: kind+flags byte, VA (8B), Size (8B only for
	// alloc/free).
	var rec [17]byte
	for _, ev := range s.evs {
		b := byte(ev.Kind) << 1
		if ev.Write {
			b |= flagWrite << 4
		}
		rec[0] = b
		binary.LittleEndian.PutUint64(rec[1:9], uint64(ev.VA))
		n := 9
		if ev.Kind != Access {
			binary.LittleEndian.PutUint64(rec[9:17], ev.Size)
			n = 17
		}
		if err := count(bw.Write(rec[:n])); err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Slice, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTraceFile, err)
	}
	if magic != fileMagic {
		return nil, ErrBadTraceFile
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	nameLen := binary.LittleEndian.Uint32(hdr[:])
	if nameLen > 4096 {
		return nil, fmt.Errorf("%w: implausible name length %d", ErrBadTraceFile, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var n8 [8]byte
	if _, err := io.ReadFull(br, n8[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(n8[:])
	const maxEvents = 1 << 32
	if count > maxEvents {
		return nil, fmt.Errorf("%w: implausible event count %d", ErrBadTraceFile, count)
	}
	// The header's count is untrusted: preallocate at most a bounded
	// prefix and let append grow with events actually read, so a short
	// stream claiming billions of events fails on EOF, not on OOM.
	prealloc := count
	if prealloc > 1<<16 {
		prealloc = 1 << 16
	}
	evs := make([]Event, 0, prealloc)
	var rec [16]byte
	for i := uint64(0); i < count; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		kind := Kind(b >> 1 & 0x7)
		if kind > Free {
			return nil, fmt.Errorf("%w: bad event kind %d", ErrBadTraceFile, kind)
		}
		ev := Event{Kind: kind, Write: b&(flagWrite<<4) != 0}
		if _, err := io.ReadFull(br, rec[:8]); err != nil {
			return nil, err
		}
		ev.VA = addr.GVA(binary.LittleEndian.Uint64(rec[:8]))
		if kind != Access {
			if _, err := io.ReadFull(br, rec[:8]); err != nil {
				return nil, err
			}
			ev.Size = binary.LittleEndian.Uint64(rec[:8])
		}
		evs = append(evs, ev)
	}
	return NewSlice(string(name), evs), nil
}
