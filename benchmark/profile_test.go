package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// parkForProfile blocks until release is closed; the goroutine profile
// must show exactly one stack through it per parked goroutine.
func parkForProfile(release <-chan struct{}, parked *sync.WaitGroup) {
	parked.Done()
	<-release
}

func hasFrame(stack []frame, suffix string) bool {
	for _, f := range stack {
		if strings.HasSuffix(f.name, suffix) {
			return true
		}
	}
	return false
}

func TestDecodeGoroutineProfileRoundTrip(t *testing.T) {
	const n = 5
	release := make(chan struct{})
	var parked, exited sync.WaitGroup
	parked.Add(n)
	exited.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer exited.Done()
			parkForProfile(release, &parked)
		}()
	}
	parked.Wait()
	var buf bytes.Buffer
	err := pprof.Lookup("goroutine").WriteTo(&buf, 0)
	close(release)
	exited.Wait()
	if err != nil {
		t.Fatal(err)
	}

	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi := p.valueIndex("goroutine/count")
	if vi < 0 {
		t.Fatalf("sample types %v lack goroutine/count", p.types)
	}
	got := int64(0)
	for _, s := range p.samples {
		if hasFrame(s.stack, ".parkForProfile") {
			got += s.values[vi]
			// Leaf first: the park sits above parkForProfile, which sits
			// above the goroutine's closure.
			park, closure := -1, -1
			for i, f := range s.stack {
				switch {
				case strings.HasSuffix(f.name, ".parkForProfile"):
					park = i
					if !strings.HasSuffix(f.file, "profile_test.go") {
						t.Errorf("parkForProfile file %q, want profile_test.go", f.file)
					}
				case strings.HasSuffix(f.name, ".TestDecodeGoroutineProfileRoundTrip.func1"):
					closure = i
				}
			}
			if !isRuntime(s.stack[0].name) || park < 1 || closure <= park {
				t.Errorf("stack not leaf-first: %v", s.stack)
			}
		}
	}
	if got != n {
		t.Errorf("decoded %d goroutines parked in parkForProfile, want %d", got, n)
	}
}

// spinSink keeps spinForProfile's loop from being optimised away.
var spinSink uint64

func spinForProfile(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestDecodeCPUProfileAttributesSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi := p.valueIndex("cpu/nanoseconds")
	if vi < 0 {
		t.Fatalf("sample types %v lack cpu/nanoseconds", p.types)
	}
	var spin, total int64
	for _, s := range p.samples {
		total += s.values[vi]
		if hasFrame(s.stack, ".spinForProfile") {
			spin += s.values[vi]
		}
	}
	if spin == 0 || spin > total {
		t.Fatalf("spinForProfile has %d of %d sampled ns", spin, total)
	}
	// The spinning frames are outside univistor/internal: attributed to other.
	secs := layerSeconds(p)
	sum := 0.0
	for _, s := range secs {
		sum += s
	}
	if d := sum - float64(total)/1e9; d > 1e-9 || d < -1e-9 {
		t.Errorf("layers sum to %v s, profile holds %v s", sum, float64(total)/1e9)
	}
	if secs[layerOther] < float64(spin)/1e9 {
		t.Errorf("other = %v s, want at least the %v s spent spinning", secs[layerOther], float64(spin)/1e9)
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	for name, raw := range map[string][]byte{
		"short length-delimited field": {0x12, 0x05, 0x01},
		"unterminated varint":          {0x08, 0xff},
		"short fixed64":                {0x09, 0x01, 0x02},
		"unknown string index":         {0x0a, 0x04, 0x08, 0x07, 0x10, 0x00, 0x32, 0x00},
	} {
		if _, err := decodeProfile(raw); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
