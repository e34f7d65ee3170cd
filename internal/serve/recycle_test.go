package serve

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wdm"
)

// chanHash and uHash are the terms of availSum: one per available (link, λ)
// channel and one per link's U.
func chanHash(id, lam int) uint64 { return mix(uint64(id)<<16 | uint64(lam) | 1<<62) }
func uHash(id, u int) uint64      { return mix(uint64(id)<<16 | uint64(u) | 1<<63) }

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// availSum is a checksum of a network's availability state: the XOR of a
// hash of every available (link, λ) channel and of every link's U. Being an
// XOR, flip can keep it up to date one change at a time.
func availSum(net *wdm.Network) uint64 {
	var h uint64
	for id := 0; id < net.Links(); id++ {
		l := net.Link(id)
		l.Avail().ForEach(func(lam int) bool {
			h ^= chanHash(id, lam)
			return true
		})
		h ^= uHash(id, l.U())
	}
	return h
}

// flip reserves λ on link id if it is free and releases it otherwise — one
// state change on the authoritative network — and returns the XOR that
// brings the network's availSum along.
func flip(t *testing.T, net *wdm.Network, id, lam int) uint64 {
	l := net.Link(id)
	u := l.U()
	var err error
	if l.HasAvail(lam) {
		err = net.Use(id, lam)
	} else {
		err = net.Release(id, lam)
	}
	if err != nil {
		t.Error(err)
	}
	return chanHash(id, lam) ^ uHash(id, u) ^ uHash(id, l.U())
}

// TestPinnedReaderKeepsItsEpoch: a reader pinned through store.pin — not
// Engine.Snapshot, whose snapshot is never recycled — keeps a bit-identical
// view across 1 000 commits, while the commits recycle every other retired
// snapshot.
func TestPinnedReaderKeepsItsEpoch(t *testing.T) {
	e := startEngine(t, nsf(8), Config{})
	if !e.Provision(Request{ID: 1, Src: 0, Dst: 13}).Accepted {
		t.Fatal("setup provision blocked")
	}
	pinned := e.store.pin()
	epoch, before, sum := pinned.epoch, linkAvail(pinned.net), availSum(pinned.net)

	commits := 0
	for id := int64(2); commits < 1000; id++ {
		if !e.Provision(Request{ID: id, Src: int(id) % 14, Dst: int(id*5+1) % 14}).Accepted {
			continue
		}
		commits++
		if e.Teardown(id).Accepted {
			commits++
		}
	}
	if st := e.Status(); st.Epoch < epoch+1000 {
		t.Fatalf("only %d epochs after the pin at %d", st.Epoch, epoch)
	}
	if pinned.epoch != epoch || !sameAvail(before, linkAvail(pinned.net)) || availSum(pinned.net) != sum {
		t.Fatalf("the reader pinned at epoch %d saw a later commit", epoch)
	}
	e.commitMu.Lock()
	slots := len(e.store.free) + 1
	e.commitMu.Unlock()
	if slots > 3 {
		t.Fatalf("%d snapshots after 1000 commits with one pin; recycling should keep at most 3", slots)
	}
	pinned.unpin()
}

// TestRecyclePoolBounded: the store holds at most pins + 2 snapshots (the
// published one and the retired ones) through 10 000 commits, with no
// reader pinned and with one pin held across all of them.
func TestRecyclePoolBounded(t *testing.T) {
	for _, pins := range []int{0, 1} {
		st := newStore(nsf(8))
		var held *snapshot
		if pins > 0 {
			held = st.pin()
		}
		rng := rand.New(rand.NewSource(int64(pins)))
		for i := 0; i < 10000; i++ {
			flip(t, st.cur, rng.Intn(st.cur.Links()), rng.Intn(st.cur.W()))
			st.publish()
			if n := len(st.free) + 1; n > pins+2 {
				t.Fatalf("pins=%d, commit %d: the store holds %d snapshots, want at most %d", pins, i, n, pins+2)
			}
		}
		if held != nil {
			held.unpin()
		}
	}
}

// TestRecyclePinnedChecksumsUnderChurn is the recycling race test: two
// committers churn the authoritative network and publish, recording the
// checksum of each epoch's state, while several readers pin the current
// snapshot, checksum it twice with a yield in between, and compare both
// with the checksum recorded for its epoch. Every pin yields between
// loading the snapshot pointer and counting itself in (pinLoaded), so
// publishes often overtake it there. A reader that reads a snapshot being
// recycled — a pin that skips its re-load check, or a publish that reuses a
// pinned snapshot — sees a mismatch, and the race detector a race.
//
// The readers are all in their loops before the first commit, and each
// committer yields after each publish, so the reads overlap the churn even
// on one P: left to the scheduler, the committers can finish every epoch
// before any reader has run.
func TestRecyclePinnedChecksumsUnderChurn(t *testing.T) {
	const committers, perCommitter, readers = 2, 5000, 4
	pinLoaded = runtime.Gosched
	defer func() { pinLoaded = nil }()
	st := newStore(nsf(8))
	sums := make([]uint64, committers*perCommitter+1) // sums[epoch], written before the epoch is published
	sum := availSum(st.cur)
	sums[0] = sum
	var done atomic.Bool
	var reads atomic.Int64
	var rwg, ready sync.WaitGroup
	ready.Add(readers)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			ready.Done()
			for !done.Load() {
				s := st.pin()
				want := sums[s.epoch]
				first := availSum(s.net)
				runtime.Gosched()
				second := availSum(s.net)
				epoch := s.epoch
				s.unpin()
				if first != want || second != want {
					t.Errorf("epoch %d: pinned reader checksums %x, %x; published %x", epoch, first, second, want)
					return
				}
				reads.Add(1)
			}
		}()
	}
	ready.Wait()
	var commitMu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perCommitter; i++ {
				commitMu.Lock()
				for k := 0; k < 1+rng.Intn(3); k++ {
					sum ^= flip(t, st.cur, rng.Intn(st.cur.Links()), rng.Intn(st.cur.W()))
				}
				sums[st.epoch()+1] = sum
				st.publish()
				commitMu.Unlock()
				runtime.Gosched()
			}
		}(int64(c + 1))
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reader completed a pinned read")
	}
}
