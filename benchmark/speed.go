package main

// The sandbox is a small shared VM: the time the same instructions take on it
// moves by a fifth within a run and by 40% from one day to the next, with no
// steal time reported (README.md, "Machine speed", has the measurements: the
// same binary read 490 and 331 tx/s on scf-conf-durable a day apart). Read
// raw, a throughput here is mostly a reading of the neighbours' load, and no
// bound the contract allows survives it. So while a run is in progress one
// thread times a fixed unit of work every speedEvery, and the figures that
// are processor time in disguise are scaled, slice by slice, to what they
// would read with the unit at speedRefUnit. Both readings are printed; the
// scaled one is the metric.

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"runtime"
	"sync"
	"time"
)

const (
	// speedUnitVerifies P-256 signature checks are one unit of work: the
	// operation every replica's processor spends most of its time in.
	speedUnitVerifies = 4
	// speedRefUnit is the unit's duration on the reference machine — this
	// box on a quiet minute. It only fixes the scale; changing it rescales
	// every normalised figure alike.
	speedRefUnit = 320 * time.Microsecond
	speedEvery   = 20 * time.Millisecond
)

type speedSample struct {
	at   time.Time
	unit time.Duration
}

// speedometer samples the machine's speed until closed. It costs under 2% of
// one core.
type speedometer struct {
	stop, done chan struct{}
	mu         sync.Mutex
	samples    []speedSample
}

func startSpeedometer() (*speedometer, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	digest := sha256.Sum256([]byte("confide benchmark speed unit"))
	sig, err := ecdsa.SignASN1(rand.Reader, priv, digest[:])
	if err != nil {
		return nil, err
	}
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// Its own thread, so a unit is timed start to finish on one core.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			start := time.Now()
			for i := 0; i < speedUnitVerifies; i++ {
				ecdsa.VerifyASN1(&priv.PublicKey, digest[:], sig)
			}
			s.mu.Lock()
			s.samples = append(s.samples, speedSample{start, time.Since(start)})
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// slowdown is how much slower than the reference machine the box ran during
// w: the median unit duration there over speedRefUnit. A window too short to
// hold a sample reads as the reference speed.
func (s *speedometer) slowdown(w window) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var units []float64
	for _, sm := range s.samples {
		if w.has(sm.at) {
			units = append(units, sm.unit.Seconds())
		}
	}
	if len(units) == 0 {
		return 1
	}
	return median(units) / speedRefUnit.Seconds()
}
