// Package workflow implements the lightweight workflow management of paper
// §II-E: coordination of coupled applications with data dependencies via a
// shared state file. A writing application locks a file by moving its state
// record to WRITING and releases it with WRITE_DONE; readers use READING /
// READ_DONE; the server-side flush uses FLUSHING / FLUSH_DONE. Lock
// acquire/release is piggybacked on collective file open/close, with only
// the root process touching the state file, so coordination adds one PFS
// round-trip per open/close rather than per-process traffic.
package workflow

import (
	"fmt"

	"univistor/internal/sim"
)

// State is a file's coordination state in the shared state file.
type State int

const (
	// Idle means no application holds the file.
	Idle State = iota
	// Writing means a writer application holds the file.
	Writing
	// WriteDone means the last writer released the file.
	WriteDone
	// Reading means at least one reader application holds the file.
	Reading
	// ReadDone means the last reader released the file.
	ReadDone
	// Flushing means UniviStor servers are flushing the file to the PFS.
	Flushing
	// FlushDone means the last flush completed.
	FlushDone
)

// String returns the state-file token for the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "IDLE"
	case Writing:
		return "WRITING"
	case WriteDone:
		return "WRITE_DONE"
	case Reading:
		return "READING"
	case ReadDone:
		return "READ_DONE"
	case Flushing:
		return "FLUSHING"
	case FlushDone:
		return "FLUSH_DONE"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// entry tracks a file's holders. Writer, readers, and flush are orthogonal
// flags (a flush and readers may overlap); the externally visible State is
// derived, with the most recent transition breaking ties.
type entry struct {
	writer   bool
	readers  int
	flushing bool
	last     State // last state-file token written
	waiters  []*sim.Proc
}

func (e *entry) state() State {
	switch {
	case e.writer:
		return Writing
	case e.flushing:
		return Flushing
	case e.readers > 0:
		return Reading
	default:
		return e.last
	}
}

// Manager is the state-file lock service. One Manager models one state file
// (on the PFS); operations cost opLatency seconds each, charged to the
// calling process — the cost of the state-file RPC.
type Manager struct {
	opLatency float64
	files     map[string]*entry
}

// NewManager returns a manager whose state-file operations cost opLatency
// seconds (use the PFS RPC latency).
func NewManager(opLatency float64) *Manager {
	return &Manager{opLatency: opLatency, files: map[string]*entry{}}
}

func (m *Manager) entryFor(file string) *entry {
	e, ok := m.files[file]
	if !ok {
		e = &entry{last: Idle}
		m.files[file] = e
	}
	return e
}

// StateOf returns the current coordination state of the file.
func (m *Manager) StateOf(file string) State { return m.entryFor(file).state() }

func (m *Manager) wake(e *entry) {
	ws := e.waiters
	e.waiters = nil
	for _, w := range ws {
		w.Resume()
	}
}

// AcquireWrite blocks p until no writer, reader, or flush holds the file,
// then marks it WRITING. Called by the root process at collective
// MPI_File_open in write-only mode.
func (m *Manager) AcquireWrite(p *sim.Proc, file string) {
	p.Sleep(m.opLatency)
	e := m.entryFor(file)
	for e.writer || e.readers > 0 || e.flushing {
		m.wait(p, e)
	}
	e.writer = true
	e.last = Writing
}

// ReleaseWrite marks the file WRITE_DONE and wakes waiters. Called at
// collective close of a write-mode file.
func (m *Manager) ReleaseWrite(p *sim.Proc, file string) {
	p.Sleep(m.opLatency)
	e := m.entryFor(file)
	if !e.writer {
		panic(fmt.Sprintf("workflow: ReleaseWrite on %s in state %s", file, e.state()))
	}
	e.writer = false
	e.last = WriteDone
	m.wake(e)
}

// AcquireRead blocks p while the file is being written — or has never been
// written at all, the incomplete-data hazard of §II-E — then marks it
// READING. Multiple reader applications may hold the file concurrently.
func (m *Manager) AcquireRead(p *sim.Proc, file string) {
	p.Sleep(m.opLatency)
	e := m.entryFor(file)
	for e.writer || e.last == Idle {
		m.wait(p, e)
	}
	e.readers++
	e.last = Reading
}

// ReleaseRead decrements the reader count; the last reader marks READ_DONE.
func (m *Manager) ReleaseRead(p *sim.Proc, file string) {
	p.Sleep(m.opLatency)
	e := m.entryFor(file)
	if e.readers <= 0 {
		panic(fmt.Sprintf("workflow: ReleaseRead on %s with no readers", file))
	}
	e.readers--
	if e.readers == 0 {
		e.last = ReadDone
		m.wake(e)
	}
}

// BeginFlush blocks until no writer holds the file, then marks it FLUSHING.
// Readers may proceed during a flush (the cached copy stays valid); writers
// must wait for FLUSH_DONE.
func (m *Manager) BeginFlush(p *sim.Proc, file string) {
	p.Sleep(m.opLatency)
	e := m.entryFor(file)
	for e.writer || e.flushing {
		m.wait(p, e)
	}
	e.flushing = true
	e.last = Flushing
}

// EndFlush marks the file FLUSH_DONE and wakes waiting writers.
func (m *Manager) EndFlush(p *sim.Proc, file string) {
	p.Sleep(m.opLatency)
	e := m.entryFor(file)
	if !e.flushing {
		panic(fmt.Sprintf("workflow: EndFlush on %s in state %s", file, e.state()))
	}
	e.flushing = false
	e.last = FlushDone
	m.wake(e)
}

// wait parks p until the entry's state changes.
func (m *Manager) wait(p *sim.Proc, e *entry) {
	e.waiters = append(e.waiters, p)
	p.Park()
}
