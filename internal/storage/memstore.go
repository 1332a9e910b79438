package storage

import (
	"sort"
	"sync"
	"time"
)

// MemStore is an in-memory KVStore used by tests and by the network
// simulator. It optionally injects a per-batch write latency so experiments
// can model the cloud-SSD block-write cost (§6.4 reports ≈6 ms per block).
type MemStore struct {
	mu           sync.RWMutex
	data         map[string][]byte
	closed       bool
	writeLatency time.Duration
	readLatency  time.Duration
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string][]byte)}
}

// SetWriteLatency makes every WriteBatch consume d of wall-clock time,
// modelling the storage device. Zero disables injection.
func (m *MemStore) SetWriteLatency(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeLatency = d
}

// SetReadLatency makes every Get consume d of wall-clock time, modelling a
// cloud/network-attached store. Reads block without burning CPU, so
// overlapping them is exactly what the engine's parallel execution buys.
func (m *MemStore) SetReadLatency(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readLatency = d
}

// Get implements KVStore.
func (m *MemStore) Get(key []byte) ([]byte, bool, error) {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return nil, false, ErrClosed
	}
	latency := m.readLatency
	v, ok := m.data[string(key)]
	if ok {
		v = append([]byte(nil), v...)
	}
	m.mu.RUnlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	if !ok {
		return nil, false, nil
	}
	return v, true, nil
}

// Put implements KVStore.
func (m *MemStore) Put(key, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.data[string(key)] = append([]byte(nil), value...)
	return nil
}

// Delete implements KVStore.
func (m *MemStore) Delete(key []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	delete(m.data, string(key))
	return nil
}

// WriteBatch implements KVStore.
func (m *MemStore) WriteBatch(b *Batch) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	for _, op := range b.ops {
		if op.delete {
			delete(m.data, string(op.key))
		} else {
			m.data[string(op.key)] = op.value // Batch.Put's own copy
		}
	}
	latency := m.writeLatency
	m.mu.Unlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	return nil
}

// Iterate implements KVStore.
func (m *MemStore) Iterate(prefix []byte, fn func(key, value []byte) bool) error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrClosed
	}
	keys := make([]string, 0, len(m.data))
	for k := range m.data {
		if hasPrefix([]byte(k), prefix) {
			keys = append(keys, k)
		}
	}
	m.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		m.mu.RLock()
		v, ok := m.data[k]
		m.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn([]byte(k), append([]byte(nil), v...)) {
			return nil
		}
	}
	return nil
}

// Len reports the number of stored keys.
func (m *MemStore) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// Close implements KVStore.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
