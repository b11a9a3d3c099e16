package demo

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// feedRecorder drives one synthetic queue-strategy execution into r:
// three threads round-robin for n ticks, with a signal, an async and a
// syscall sprinkled in, plus output. A positive flushEvery flushes at
// every multiple of it so the container holds several chunk batches and
// the windows actually shift. Returns the final tick.
func feedRecorder(t *testing.T, r *Recorder, n, flushEvery int) uint64 {
	t.Helper()
	for tick := 1; tick <= n; tick++ {
		tid := int32((tick - 1) % 3)
		r.NoteSchedule(tid, uint64(tick))
		switch tick % 7 {
		case 2:
			r.AddSignal(SignalEvent{TID: tid, Tick: uint64(tick), Sig: 15})
		case 3:
			r.AddAsync(AsyncEvent{Kind: AsyncReschedule, Tick: uint64(tick), TID: tid})
		case 5:
			r.AddSyscall(SyscallRecord{TID: tid, Kind: 3, Ret: int64(tick), Bufs: [][]byte{{byte(tick)}}})
		}
		if tick%4 == 0 {
			r.MixOutput([]byte{byte(tick)})
		}
		if flushEvery > 0 && tick%flushEvery == 0 {
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return uint64(n)
}

// mustClose closes a recorder and returns its demo. A memory sink cannot
// fail to write, so an error is a bug.
func mustClose(r *Recorder, finalTick uint64) *Demo {
	d, err := r.Close(finalTick)
	if err != nil {
		panic(err)
	}
	return d
}

// newStreamRecorder returns a file recorder writing into a temp file, with
// the background flusher effectively disabled so tests control flush
// boundaries exactly via Flush().
func newStreamRecorder(t *testing.T) (*Recorder, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.demo2")
	r, err := NewFileRecorder(path, StrategyQueue, 11, 22, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return r, path
}

// TestStreamingAddIndicesStayGlobal: the indices Add* return keep counting
// across flushes (trace events carry them as global stream offsets).
func TestStreamingAddIndicesStayGlobal(t *testing.T) {
	r, _ := newStreamRecorder(t)
	for i := 0; i < 5; i++ {
		r.NoteSchedule(0, uint64(i+1))
		if got := r.AddSignal(SignalEvent{TID: 0, Tick: uint64(i + 1), Sig: 1}); got != i {
			t.Fatalf("AddSignal #%d returned %d", i, got)
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.SyscallCount(); got != 0 {
		t.Fatalf("SyscallCount = %d", got)
	}
	r.AddSyscall(SyscallRecord{TID: 0, Kind: 1})
	r.Flush()
	if got := r.AddSyscall(SyscallRecord{TID: 0, Kind: 2}); got != 1 {
		t.Fatalf("AddSyscall after flush returned %d, want 1", got)
	}
	if got := r.SyscallCount(); got != 2 {
		t.Fatalf("SyscallCount = %d, want 2", got)
	}
	mustClose(r, 5)
}

// streamedFile records a run into a file with flushes every flushEvery
// ticks and returns the file bytes and the same run recorded in memory.
// The demo Close returns for the file must equal the one read back.
func streamedFile(t *testing.T, n, flushEvery int) ([]byte, *Demo) {
	t.Helper()
	mem := NewRecorder(StrategyQueue, 11, 22)
	want := mustClose(mem, feedRecorder(t, mem, n, 0))

	sr, path := newStreamRecorder(t)
	closed, err := sr.Close(feedRecorder(t, sr, n, flushEvery))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if read, err := DecodeStream(data); err != nil || !reflect.DeepEqual(read, closed) {
		t.Fatalf("Close's demo differs from the file's (%v)", err)
	}
	return data, want
}

// TestRecoverTornTails: cutting the file anywhere after the first footer
// recovers a valid, replayable prefix whose schedule and event streams
// agree with the full recording.
func TestRecoverTornTails(t *testing.T) {
	data, full := streamedFile(t, 300, 32)
	fullSchedule, err := full.queueSchedule()
	if err != nil {
		t.Fatal(err)
	}

	// The whole file must strict-decode and recover identically.
	if _, err := DecodeStream(data); err != nil {
		t.Fatalf("DecodeStream(full): %v", err)
	}
	whole, err := RecoverBytes(data)
	if err != nil {
		t.Fatalf("RecoverBytes(full): %v", err)
	}
	if whole.Truncated {
		t.Fatal("complete file recovered as truncated")
	}
	if !reflect.DeepEqual(whole, full) {
		t.Fatal("recovery of the complete file differs from the recording")
	}

	recovered := 0
	for cut := v2HeaderLen + 1; cut < len(data); cut += 37 {
		d, err := RecoverBytes(data[:cut])
		if err != nil {
			continue // cut before the first intact footer: nothing to recover
		}
		recovered++
		if err := d.Validate(); err != nil {
			t.Fatalf("cut %d: recovered demo invalid: %v", cut, err)
		}
		if !d.Truncated {
			t.Fatalf("cut %d: truncated file not marked truncated", cut)
		}
		if d.FinalTick > full.FinalTick {
			t.Fatalf("cut %d: prefix final tick %d exceeds full %d", cut, d.FinalTick, full.FinalTick)
		}
		sched, err := d.queueSchedule()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i := uint64(1); i <= d.FinalTick; i++ {
			if sched[i] != fullSchedule[i] {
				t.Fatalf("cut %d: schedule diverges at tick %d: %d != %d", cut, i, sched[i], fullSchedule[i])
			}
		}
		// Event streams must be prefixes of the full ones.
		if !reflect.DeepEqual(d.Signals, full.Signals[:len(d.Signals)]) {
			t.Fatalf("cut %d: signal stream is not a prefix", cut)
		}
		if !reflect.DeepEqual(d.Asyncs, full.Asyncs[:len(d.Asyncs)]) {
			t.Fatalf("cut %d: async stream is not a prefix", cut)
		}
		if !reflect.DeepEqual(d.Syscalls, full.Syscalls[:len(d.Syscalls)]) {
			t.Fatalf("cut %d: syscall stream is not a prefix", cut)
		}
		// A truncated demo must survive the v1 round trip with its flag.
		rt, err := Decode(d.Encode())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !rt.Truncated {
			t.Fatalf("cut %d: Truncated lost in v1 round trip", cut)
		}
	}
	if recovered == 0 {
		t.Fatal("no cut recovered anything; flush cadence broken?")
	}

	// Strict decoding must reject every torn tail.
	if _, err := DecodeStream(data[:len(data)-3]); err == nil {
		t.Fatal("DecodeStream accepted a torn file")
	}
}

// TestRecoverEdgeCases: garbage, header-only, duplicated footer, corrupted
// mid-chunk byte.
func TestRecoverEdgeCases(t *testing.T) {
	if _, err := RecoverBytes([]byte("not a demo stream at all")); err == nil {
		t.Fatal("recovered garbage")
	}
	if _, err := RecoverBytes(nil); err == nil {
		t.Fatal("recovered empty input")
	}

	data, full := streamedFile(t, 50, 10)

	// Header only: valid container, no footer, nothing to recover.
	if _, err := RecoverBytes(data[:v2HeaderLen]); err == nil {
		t.Fatal("recovered a header-only file")
	}

	// Duplicated final footer chunk: still recoverable (the scan just sees
	// one more candidate), and strict decoding still accepts it since the
	// file ends at an intact final footer.
	var lastFooterStart int
	for off := v2HeaderLen; off < len(data); {
		typ, _, next, ok := parseChunk(data, off)
		if !ok {
			t.Fatal("unexpected torn chunk in complete file")
		}
		if typ == chunkFooter {
			lastFooterStart = off
		}
		off = next
	}
	dup := append(append([]byte(nil), data...), data[lastFooterStart:]...)
	d, err := RecoverBytes(dup)
	if err != nil {
		t.Fatalf("duplicated footer: %v", err)
	}
	if d.FinalTick != full.FinalTick || d.Truncated {
		t.Fatalf("duplicated footer changed the recovery: tick %d truncated %v", d.FinalTick, d.Truncated)
	}

	// Corrupting a byte inside the first chunk's payload kills its CRC;
	// everything from there is torn, so nothing recovers (the first chunk
	// batch precedes the first footer).
	bad := append([]byte(nil), data...)
	bad[v2HeaderLen+5] ^= 0xFF
	if _, err := RecoverBytes(bad); err == nil {
		t.Fatal("recovered through a corrupt chunk")
	}
}

// TestGrowCapOverflow pins the doubling-overflow fix: the loop used to
// wrap c*2 past zero and spin forever once need exceeded 1<<63.
func TestGrowCapOverflow(t *testing.T) {
	if got := growCap(0, 5); uint64(got) < 1024 {
		t.Fatalf("growCap(0,5) = %d", got)
	}
	if got := growCap(1024, 1<<20); uint64(got) < 1<<20 {
		t.Fatalf("growCap(1024,1<<20) = %d", got)
	}
	// Must terminate and clamp rather than loop forever. (The clamped
	// value converted to int is unusable at this magnitude, but such a
	// need is unreachable: it would require a tick count past 2^63.)
	done := make(chan int, 1)
	go func() { done <- growCap(1024, ^uint64(0)) }()
	select {
	case got := <-done:
		if uint64(got) != ^uint64(0) {
			t.Fatalf("overflow clamp returned %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("growCap spun on overflow")
	}
}

// TestMixHashZeroStateNotReseeded pins the h==0 sentinel fix: a mid-stream
// FNV state of 0 must keep evolving as FNV from 0, not be re-seeded with
// the offset basis.
func TestMixHashZeroStateNotReseeded(t *testing.T) {
	r := NewRecorder(StrategyQueue, 1, 2)
	r.outputHash = 0
	r.hashInited = true
	r.MixOutput([]byte{7})
	if want := mixHash(0, []byte{7}); r.outputHash != want {
		t.Fatalf("recorder re-seeded a legitimate zero state: %#x != %#x", r.outputHash, want)
	}

	rep, err := NewReplayer(&Demo{Strategy: StrategyRandom}, ReplayStrict)
	if err != nil {
		t.Fatal(err)
	}
	rep.outputHash = 0
	rep.hashInited = true
	rep.MixOutput([]byte{7})
	if want := mixHash(0, []byte{7}); rep.outputHash != want {
		t.Fatalf("replayer re-seeded a legitimate zero state: %#x != %#x", rep.outputHash, want)
	}

	// An empty output stream still hashes to 0 (on-disk compatibility with
	// demos recorded before the fix).
	r2 := NewRecorder(StrategyQueue, 1, 2)
	if d := mustClose(r2, 0); d.OutputHash != 0 {
		t.Fatalf("empty output hashed to %#x, want 0", d.OutputHash)
	}
}
