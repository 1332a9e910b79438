package storage

import (
	"errors"
	"fmt"
	"testing"

	"confide/internal/storage/vfs"
	"confide/internal/storage/vfs/faultfs"
)

// Crash-recovery contract, exercised through the fault filesystem: a store
// power-cut at any named crash point must reopen to a consistent prefix of
// the acknowledged writes — every acknowledged durable write survives, and
// nothing that was never written appears.

func crashStoreOptions(f *faultfs.FS, crash *vfs.CrashPoints) LSMOptions {
	return LSMOptions{
		FS:            f,
		Crash:         crash,
		MemtableBytes: 256, // flush every few writes so flush/publish points fire
	}
}

func TestCrashAtStoragePointsRecoversAckedWrites(t *testing.T) {
	points := []string{
		vfs.CrashWALAppend,
		vfs.CrashMemtableFlush,
		vfs.CrashSSTablePublish,
	}
	for pi, point := range points {
		t.Run(point, func(t *testing.T) {
			f := faultfs.New(500 + int64(pi))
			crash := vfs.NewCrashPoints(f)
			dir := "store"
			s, err := OpenLSM(dir, crashStoreOptions(f, crash))
			if err != nil {
				t.Fatal(err)
			}

			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
			val := func(i int) []byte { return []byte(fmt.Sprintf("val-%04d-%032d", i, i)) }

			crash.Arm(point)
			acked := 0
			crashedAt := -1
			for i := 0; i < 200; i++ {
				if err := s.Put(key(i), val(i)); err != nil {
					crashedAt = i
					break
				}
				acked++
			}
			if crashedAt < 0 {
				t.Fatalf("crash point %q never fired in 200 writes", point)
			}
			// The failure is sticky: the store must refuse all later writes
			// rather than acknowledge commits of unknown durability.
			if err := s.Put([]byte("after"), []byte("x")); !errors.Is(err, ErrStoreFailed) {
				t.Fatalf("write after crash: got %v, want ErrStoreFailed", err)
			}

			// Power comes back: thaw the disk at its crash image and reopen
			// with full verification.
			f.Reopen()
			crash.Reset()
			opts := crashStoreOptions(f, nil)
			opts.VerifyOnOpen = true
			s2, err := OpenLSM(dir, opts)
			if err != nil {
				t.Fatalf("reopen after %s crash: %v", point, err)
			}
			defer s2.Close()

			for i := 0; i < acked; i++ {
				v, found, err := s2.Get(key(i))
				if err != nil {
					t.Fatalf("get acked key %d: %v", i, err)
				}
				if !found || string(v) != string(val(i)) {
					t.Fatalf("acknowledged write %d lost after %s crash (found=%v)", i, point, found)
				}
			}
			// Beyond the acked set, only the single in-flight write may have
			// landed (its WAL commit may have become durable before the point
			// fired); anything else is a phantom.
			for i := acked + 1; i < 200; i++ {
				if _, found, _ := s2.Get(key(i)); found {
					t.Fatalf("phantom key %d after %s crash (acked=%d)", i, point, acked)
				}
			}
		})
	}
}

// TestAckedWritesSurvivePowerCut power-cuts a default-options store after a
// run of acknowledged writes and requires every one of them back: a durable
// store syncs its WAL before WriteBatch returns, so no acknowledged write is
// left in the unsynced tail a crash tears. The survivors must also be a
// strict prefix of the write order. Each seed tears the tail differently.
func TestAckedWritesSurvivePowerCut(t *testing.T) {
	const n = 50
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	for seed := int64(600); seed < 605; seed++ {
		f := faultfs.New(seed)
		dir := "store"
		s, err := OpenLSM(dir, LSMOptions{FS: f})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := s.Put(key(i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		f.Crash() // power cable, mid-stream, no clean shutdown

		f.Reopen()
		s2, err := OpenLSM(dir, LSMOptions{FS: f, VerifyOnOpen: true})
		if err != nil {
			t.Fatalf("seed %d: reopen after power cut: %v", seed, err)
		}
		surviving := 0
		for i := 0; i < n; i++ {
			if _, found, _ := s2.Get(key(i)); found {
				surviving++
			} else {
				break
			}
		}
		// Everything after the first gap must be gone, or order was broken.
		for i := surviving; i < n; i++ {
			if _, found, _ := s2.Get(key(i)); found {
				t.Fatalf("seed %d: key %d survived but key %d did not — non-prefix recovery", seed, i, surviving)
			}
		}
		s2.Close()
		if surviving != n {
			t.Fatalf("seed %d: power cut kept %d/%d acknowledged writes", seed, surviving, n)
		}
	}
}

// TestSyncLieLosesOnlyUnsyncedSuffix models firmware that acknowledges fsync
// without persisting: the store cannot detect the lie at write time, but
// recovery must still come up on a consistent prefix rather than corrupt
// state.
func TestSyncLieLosesOnlyUnsyncedSuffix(t *testing.T) {
	f := faultfs.New(700)
	dir := "store"
	s, err := OpenLSM(dir, LSMOptions{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	for i := 0; i < 10; i++ {
		if err := s.Put(key(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	f.SetProbs(faultfs.Probs{SyncLie: 1})
	for i := 10; i < 20; i++ {
		if err := s.Put(key(i), []byte{byte(i)}); err != nil {
			t.Fatal(err) // the lie is invisible: writes "succeed"
		}
	}
	f.Calm()
	f.Crash()

	f.Reopen()
	s2, err := OpenLSM(dir, LSMOptions{FS: f, VerifyOnOpen: true})
	if err != nil {
		t.Fatalf("reopen after lying-fsync crash: %v", err)
	}
	defer s2.Close()
	for i := 0; i < 10; i++ {
		if _, found, _ := s2.Get(key(i)); !found {
			t.Fatalf("honestly-synced key %d lost", i)
		}
	}
	// The lied-about suffix must again be a prefix-consistent remainder.
	surviving := 10
	for i := 10; i < 20; i++ {
		if _, found, _ := s2.Get(key(i)); found {
			surviving = i + 1
		}
	}
	for i := 10; i < surviving; i++ {
		if _, found, _ := s2.Get(key(i)); !found {
			t.Fatalf("gap at key %d inside surviving range %d", i, surviving)
		}
	}
}

// TestENOSPCFailsStoreLoudly fills the WAL append path with injected
// no-space errors and requires a loud sticky failure, never a silent drop.
func TestENOSPCFailsStoreLoudly(t *testing.T) {
	f := faultfs.New(800)
	s, err := OpenLSM("store", LSMOptions{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	f.SetProbs(faultfs.Probs{WriteErr: 1})
	var failErr error
	for i := 0; i < 10 && failErr == nil; i++ {
		failErr = s.Put([]byte(fmt.Sprintf("b%d", i)), []byte("2"))
	}
	if failErr == nil {
		t.Fatal("full-disk writes kept succeeding")
	}
	f.Calm()
	if err := s.Put([]byte("c"), []byte("3")); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("store accepted writes after ENOSPC: %v", err)
	}
}

// TestFsyncErrorIsSticky pins post-EIO fsync semantics end to end: one
// failed fsync permanently fails the store (the page cache's content is
// unknowable), and metrics record the sticky failure.
func TestFsyncErrorIsSticky(t *testing.T) {
	f := faultfs.New(900)
	s, err := OpenLSM("store", LSMOptions{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	f.SetProbs(faultfs.Probs{SyncErr: 1})
	if err := s.Put([]byte("a"), []byte("1")); err == nil {
		t.Fatal("put succeeded through a failing fsync")
	}
	f.Calm() // the disk "recovers" — but the store must not
	if err := s.Put([]byte("b"), []byte("2")); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("store forgave a failed fsync: %v", err)
	}
	if s.Failed() == nil {
		t.Fatal("Failed() reports healthy after fsync error")
	}
}
