// Reading the v2 streamed container: strict decoding of complete files
// (DecodeStream, dispatched to by ReadFile) and tolerant recovery of torn
// ones (Recover / RecoverBytes).
//
// Recovery rules: scan the file chunk by chunk, stopping at the first
// structurally invalid or CRC-failing chunk (the torn tail a crash
// leaves). Every intact footer is a candidate cut; candidates are tried
// newest-first and the first whose reconstructed prefix validates wins —
// the longest valid prefix of the recording. The recovered demo carries
// Truncated=true unless the file ends in an intact final footer, which
// makes its replay stop cleanly at FinalTick instead of hard-desyncing
// when the program runs past the end of the streams.
package demo

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/rle"
)

// DecodeStream parses a complete v2 streamed container. The file must end
// in an intact footer written by Close (the final flag); anything torn is
// rejected — use Recover for files left behind by a crash.
func DecodeStream(data []byte) (*Demo, error) {
	return decodeV2(data, false)
}

// Recover reads a possibly-torn v2 container from path and reconstructs
// the longest valid prefix as a replayable Demo. See RecoverBytes.
func Recover(path string) (*Demo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return RecoverBytes(data)
}

// RecoverBytes is Recover over in-memory bytes: it drops any torn tail,
// cuts the stream at the newest intact footer whose prefix validates, and
// returns the reconstructed Demo. The result's Truncated flag is set
// unless the data ends in an intact final footer (in which case the
// result equals DecodeStream's).
func RecoverBytes(data []byte) (*Demo, error) {
	return decodeV2(data, true)
}

// v2Footer is one decoded footer chunk plus where its chunk ends.
type v2Footer struct {
	final bool
	tick  uint64
	hash  uint64
	end   int // offset just past the footer's CRC
}

func decodeV2(data []byte, tolerant bool) (*Demo, error) {
	if len(data) < v2HeaderLen || string(data[:len(magic2)]) != magic2 {
		return nil, fmt.Errorf("%w: bad v2 magic", ErrCorrupt)
	}
	if v := data[len(magic2)]; v != version2 {
		return nil, fmt.Errorf("%w: unsupported v2 version %d", ErrCorrupt, v)
	}
	strategy := Strategy(data[len(magic2)+1])
	seed1 := binary.LittleEndian.Uint64(data[len(magic2)+2:])
	seed2 := binary.LittleEndian.Uint64(data[len(magic2)+10:])

	// Scan pass: walk intact chunks, collecting footers. The walk stops
	// at the first chunk that is structurally invalid or fails its CRC —
	// the torn tail.
	var footers []v2Footer
	off := v2HeaderLen
	for off < len(data) {
		typ, pay, next, ok := parseChunk(data, off)
		if !ok {
			break
		}
		if typ == chunkFooter {
			fo, ok := parseFooter(pay)
			if !ok {
				if !tolerant {
					return nil, fmt.Errorf("%w: malformed footer chunk at offset %d", ErrCorrupt, off)
				}
				break
			}
			fo.end = next
			footers = append(footers, fo)
		}
		off = next
	}

	if !tolerant {
		if off != len(data) {
			return nil, fmt.Errorf("%w: torn chunk at offset %d (crashed recording? use Recover)", ErrCorrupt, off)
		}
		if len(footers) == 0 || !footers[len(footers)-1].final || footers[len(footers)-1].end != len(data) {
			return nil, fmt.Errorf("%w: stream does not end in a final footer (crashed recording? use Recover)", ErrCorrupt)
		}
		return buildV2(data, strategy, seed1, seed2, footers[len(footers)-1], false)
	}

	if len(footers) == 0 {
		return nil, fmt.Errorf("%w: no intact footer; nothing to recover", ErrCorrupt)
	}
	// Try cuts newest-first; the first prefix that reconstructs and
	// validates is the longest valid prefix.
	var lastErr error
	for i := len(footers) - 1; i >= 0; i-- {
		fo := footers[i]
		complete := fo.final && fo.end == len(data)
		d, err := buildV2(data, strategy, seed1, seed2, fo, !complete)
		if err != nil {
			lastErr = err
			continue
		}
		if err := d.Validate(); err != nil {
			lastErr = err
			continue
		}
		return d, nil
	}
	return nil, fmt.Errorf("demo: no recoverable prefix: %w", lastErr)
}

// parseChunk parses the chunk at off: type byte, uvarint length, payload,
// CRC32. ok is false if the chunk is truncated, has an unknown type, or
// fails its CRC — all of which recovery treats as the torn tail.
func parseChunk(data []byte, off int) (typ byte, pay []byte, next int, ok bool) {
	if off >= len(data) {
		return 0, nil, 0, false
	}
	typ = data[off]
	if typ != chunkQueue && typ != chunkEvents && typ != chunkFooter {
		return 0, nil, 0, false
	}
	ln, n := binary.Uvarint(data[off+1:])
	if n <= 0 || ln > uint64(len(data)) {
		return 0, nil, 0, false
	}
	body := off + 1 + n
	end := body + int(ln)
	if body > len(data) || end+4 > len(data) {
		return 0, nil, 0, false
	}
	pay = data[body:end]
	if crc32.ChecksumIEEE(pay) != binary.LittleEndian.Uint32(data[end:]) {
		return 0, nil, 0, false
	}
	return typ, pay, end + 4, true
}

// parseFooter decodes a footer payload: flags byte, uvarint tick, 8-byte
// output hash, nothing else.
func parseFooter(pay []byte) (v2Footer, bool) {
	if len(pay) < 1 {
		return v2Footer{}, false
	}
	tick, n := binary.Uvarint(pay[1:])
	if n <= 0 || len(pay) != 1+n+8 {
		return v2Footer{}, false
	}
	return v2Footer{
		final: pay[0]&footerFinal != 0,
		tick:  tick,
		hash:  binary.LittleEndian.Uint64(pay[1+n:]),
	}, true
}

// payCursor walks one chunk payload. Counts are never pre-allocated from
// claimed values: every record consumes at least one byte, so a corrupt
// count runs out of payload instead of forcing a huge allocation.
type payCursor struct {
	pay []byte
	off int
	err error
}

func (c *payCursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.pay[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
		return 0
	}
	c.off += n
	return v
}

func (c *payCursor) byteVal(what string) byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.pay) {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, what)
		return 0
	}
	b := c.pay[c.off]
	c.off++
	return b
}

func (c *payCursor) rleBytes(what string) []byte {
	if c.err != nil {
		return nil
	}
	b, n, err := c.pay[c.off:], 0, error(nil)
	var out []byte
	out, n, err = rle.DecodeBytes(b)
	if err != nil {
		c.err = fmt.Errorf("%s: %w", what, err)
		return nil
	}
	c.off += n
	return out
}

func (c *payCursor) exhausted(what string) {
	if c.err == nil && c.off != len(c.pay) {
		c.err = fmt.Errorf("%w: %s has %d trailing payload bytes", ErrCorrupt, what, len(c.pay)-c.off)
	}
}

// buildV2 reconstructs the demo from every chunk before fo's end.
func buildV2(data []byte, strategy Strategy, seed1, seed2 uint64, fo v2Footer, truncated bool) (*Demo, error) {
	d := &Demo{
		Strategy:   strategy,
		Seed1:      seed1,
		Seed2:      seed2,
		FinalTick:  fo.tick,
		OutputHash: fo.hash,
		Truncated:  truncated,
	}
	var ticks []uint64
	var patches []patchEntry
	off := v2HeaderLen
	for off < fo.end {
		typ, pay, next, ok := parseChunk(data, off)
		if !ok {
			// Cannot happen: the scan pass validated every chunk up to fo.
			return nil, fmt.Errorf("%w: unparseable chunk at offset %d", ErrCorrupt, off)
		}
		off = next
		c := &payCursor{pay: pay}
		switch typ {
		case chunkQueue:
			start := c.uvarint("queue chunk start slot")
			if c.err == nil && start != uint64(len(ticks)) {
				return nil, fmt.Errorf("%w: queue chunk starts at slot %d, want %d", ErrCorrupt, start, len(ticks))
			}
			if c.err == nil {
				deltas, n, err := rle.DecodeUint64s(pay[c.off:])
				if err != nil {
					return nil, fmt.Errorf("demo: queue chunk deltas: %w", err)
				}
				c.off += n
				if ticks == nil {
					ticks = deltas // a lone chunk (every in-memory recording) needs no copy
				} else {
					ticks = append(ticks, deltas...)
				}
			}
			nFirsts := c.uvarint("queue chunk first count")
			for i := uint64(0); i < nFirsts && c.err == nil; i++ {
				tid := c.uvarint("queue chunk first tid")
				first := c.uvarint("queue chunk first tick")
				if c.err == nil {
					if d.Queue.FirstTick == nil {
						d.Queue.FirstTick = make(map[int32]uint64)
					}
					d.Queue.FirstTick[int32(uint32(tid))] = first
				}
			}
			nPatches := c.uvarint("queue chunk patch count")
			for i := uint64(0); i < nPatches && c.err == nil; i++ {
				slot := c.uvarint("queue chunk patch slot")
				delta := c.uvarint("queue chunk patch delta")
				if c.err == nil {
					patches = append(patches, patchEntry{slot: slot, delta: delta})
				}
			}
			c.exhausted("queue chunk")
		case chunkEvents:
			nSigs := c.uvarint("events chunk signal count")
			for i := uint64(0); i < nSigs && c.err == nil; i++ {
				tid := c.uvarint("signal tid")
				tick := c.uvarint("signal tick")
				sig := c.uvarint("signal value")
				if c.err == nil {
					d.Signals = append(d.Signals, SignalEvent{TID: int32(uint32(tid)), Tick: tick, Sig: int32(uint32(sig))})
				}
			}
			nAsyncs := c.uvarint("events chunk async count")
			for i := uint64(0); i < nAsyncs && c.err == nil; i++ {
				kind := AsyncKind(c.byteVal("async kind"))
				tick := c.uvarint("async tick")
				tid := c.uvarint("async tid")
				if c.err == nil {
					d.Asyncs = append(d.Asyncs, AsyncEvent{Kind: kind, Tick: tick, TID: int32(uint32(tid))})
				}
			}
			nSys := c.uvarint("events chunk syscall count")
			for i := uint64(0); i < nSys && c.err == nil; i++ {
				tid := c.uvarint("syscall tid")
				kind := c.uvarint("syscall kind")
				ret := c.uvarint("syscall ret")
				errno := c.uvarint("syscall errno")
				nBufs := c.uvarint("syscall buf count")
				sc := SyscallRecord{
					TID: int32(uint32(tid)), Kind: uint16(kind),
					Ret: unzigzag(ret), Errno: int32(uint32(errno)),
				}
				for b := uint64(0); b < nBufs && c.err == nil; b++ {
					if buf := c.rleBytes("syscall buf"); c.err == nil {
						sc.Bufs = append(sc.Bufs, buf)
					}
				}
				if c.err == nil {
					d.Syscalls = append(d.Syscalls, sc)
				}
			}
			c.exhausted("events chunk")
		case chunkFooter:
			// Earlier footer candidates are just markers; nothing to apply.
		}
		if c.err != nil {
			return nil, c.err
		}
	}
	if strategy == StrategyQueue {
		// Slots at or past FinalTick describe ticks beyond the cut; drop
		// them (they can only appear via defensive clamping) and apply
		// the backfill patches that landed inside the prefix. Patches
		// past the cut belong to longer prefixes: without them the slot
		// keeps 0, "never scheduled again within this prefix".
		if uint64(len(ticks)) > fo.tick {
			ticks = ticks[:fo.tick]
		}
		for _, p := range patches {
			if p.slot < uint64(len(ticks)) {
				ticks[p.slot] = p.delta
			}
		}
		d.Queue.Ticks = ticks
	}
	return d, nil
}
