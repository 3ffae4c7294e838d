package progbin

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
)

func sampleModule(t testing.TB) *ir.Module {
	t.Helper()
	mb := ir.NewModuleBuilder("sample")
	mb.Global("g", 8192)
	f := mb.Function("work")
	f.Loop(10, func() {
		f.Load(ir.Access{Global: "g", Pattern: ir.Seq})
	})
	f.Return()
	main := mb.Function("main")
	main.Call("work")
	main.Return()
	mb.SetEntry("main")
	m, err := mb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func sampleBinary(t testing.TB, protean bool) *Binary {
	t.Helper()
	m := sampleModule(t)
	var virt func(*ir.Module, *ir.Function) bool
	if protean {
		virt = func(_ *ir.Module, f *ir.Function) bool { return len(f.Blocks) > 1 }
	}
	p, err := isa.Lower(m, isa.Config{Virtualize: virt})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	b := &Binary{Program: p, Protean: protean}
	if protean {
		blob, err := ir.EncodeBytes(m)
		if err != nil {
			t.Fatalf("EncodeBytes: %v", err)
		}
		b.IRBlob = blob
	}
	return b
}

func TestBinaryRoundTrip(t *testing.T) {
	b := sampleBinary(t, true)
	data, err := b.EncodeBytes()
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	got, err := DecodeBytes(data)
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if got.Program.Name != "sample" || !got.Protean {
		t.Errorf("round trip lost fields: name=%q protean=%v", got.Program.Name, got.Protean)
	}
	if len(got.Program.Code) != len(b.Program.Code) {
		t.Errorf("code length %d, want %d", len(got.Program.Code), len(b.Program.Code))
	}
	if !bytes.Equal(got.IRBlob, b.IRBlob) {
		t.Error("IR blob corrupted in round trip")
	}
}

func TestDecodeIR(t *testing.T) {
	b := sampleBinary(t, true)
	m, err := b.DecodeIR()
	if err != nil {
		t.Fatalf("DecodeIR: %v", err)
	}
	if m.Name != "sample" || m.Func("work") == nil {
		t.Errorf("decoded IR wrong: %q", m.Name)
	}
	// Each decode is independent: mutating one must not affect the next.
	m.Loads()[0].NT = true
	m2, err := b.DecodeIR()
	if err != nil {
		t.Fatalf("second DecodeIR: %v", err)
	}
	if m2.Loads()[0].NT {
		t.Error("DecodeIR returned shared state across calls")
	}
}

// IR decodes once: every call returns the same module, distinct from the
// fresh ones DecodeIR hands out.
func TestIRShared(t *testing.T) {
	b := sampleBinary(t, true)
	m, err := b.IR()
	if err != nil {
		t.Fatalf("IR: %v", err)
	}
	if again, _ := b.IR(); again != m {
		t.Error("IR returned a different module on the second call")
	}
	if fresh, _ := b.DecodeIR(); fresh == m {
		t.Error("DecodeIR returned the shared module")
	}
	if m.Name != "sample" || m.Func("work") == nil {
		t.Errorf("shared IR wrong: %q", m.Name)
	}
}

func TestPlainBinaryHasNoIR(t *testing.T) {
	b := sampleBinary(t, false)
	if b.HasIR() {
		t.Error("plain binary claims to have IR")
	}
	if _, err := b.DecodeIR(); !errors.Is(err, ErrNotProtean) {
		t.Errorf("DecodeIR error = %v, want ErrNotProtean", err)
	}
	if _, err := b.IR(); !errors.Is(err, ErrNotProtean) {
		t.Errorf("IR error = %v, want ErrNotProtean", err)
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := DecodeBytes([]byte("XXXXXXXX")); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := DecodeBytes([]byte(magic)); err == nil {
		t.Error("accepted truncated binary")
	}
	if _, err := DecodeBytes(nil); err == nil {
		t.Error("accepted empty input")
	}
}

func TestLiveEVT(t *testing.T) {
	b := sampleBinary(t, true)
	evt := NewLiveEVT(b.Program.EVT)
	if evt.Len() != len(b.Program.EVT) {
		t.Fatalf("Len = %d, want %d", evt.Len(), len(b.Program.EVT))
	}
	slot := evt.SlotFor("work")
	if slot < 0 {
		t.Fatal("no slot for work")
	}
	fi, _ := b.Program.FuncByName("work")
	if evt.Target(slot) != fi.Entry {
		t.Errorf("initial target %d, want %d", evt.Target(slot), fi.Entry)
	}
	evt.SetTarget(slot, 999)
	if evt.Target(slot) != 999 {
		t.Error("SetTarget did not take effect")
	}
	if evt.SlotFor("missing") != -1 {
		t.Error("SlotFor(missing) != -1")
	}
	if evt.Callee(slot) != "work" {
		t.Errorf("Callee(%d) = %q", slot, evt.Callee(slot))
	}
}

// The EVT contract is lock-free concurrent access: a writer goroutine
// redirecting while readers dispatch must be race-free (run with -race).
func TestLiveEVTConcurrent(t *testing.T) {
	b := sampleBinary(t, true)
	evt := NewLiveEVT(b.Program.EVT)
	slot := evt.SlotFor("work")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			evt.SetTarget(slot, i)
		}
		close(stop)
	}()
	reads := 0
	for {
		select {
		case <-stop:
			wg.Wait()
			if evt.Target(slot) != 999 {
				t.Errorf("final target %d, want 999", evt.Target(slot))
			}
			if reads == 0 {
				t.Error("reader never ran")
			}
			return
		default:
			_ = evt.Target(slot)
			reads++
		}
	}
}

// FuzzDecodeBytes feeds hostile bytes through everything a loader does
// with a binary from outside the process: decode the container, verify the
// program, decode the embedded IR through both DecodeIR and IR. Each step
// must reject bad input with an error, never a panic, and the two IR entry
// points must agree on whether the blob decodes.
func FuzzDecodeBytes(f *testing.F) {
	for _, protean := range []bool{false, true} {
		data, err := sampleBinary(f, protean).EncodeBytes()
		if err != nil {
			f.Fatalf("EncodeBytes: %v", err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBytes(data)
		if err != nil {
			return
		}
		if err := isa.VerifyProgram(b.Program); err != nil {
			return
		}
		_, err = b.DecodeIR()
		if _, serr := b.IR(); (err == nil) != (serr == nil) {
			t.Fatalf("DecodeIR error %v, IR error %v", err, serr)
		}
	})
}
