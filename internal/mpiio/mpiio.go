// Package mpiio is the MPI-IO layer with an ADIO-style driver interface
// (paper §II-F): applications perform collective opens and independent
// reads/writes against a File abstraction, while a Driver supplies the
// file-system behaviour underneath. UniviStor, plain Lustre, and Data
// Elevator are drivers; a job's Env holds the one driver it runs on, as
// ROMIO_FSTYPE_FORCE picks one per job. The UniviStor driver hands out
// core's client file itself, so an MPI-IO call reaches the client library
// with no layer in between.
package mpiio

import (
	"fmt"

	"univistor/internal/mpi"
)

// File is an open MPI file handle. WriteAt/ReadAt are independent
// operations; Close is collective.
type File interface {
	WriteAt(off, size int64, data []byte) error
	ReadAt(off, size int64) ([]byte, error)
	Close() error
}

// Deleter is implemented by files that support reclaiming byte ranges
// (UniviStor punches the segments' log chunks back onto the free stack).
type Deleter interface {
	// Delete removes the segments entirely inside [off, off+size) and
	// returns how many were reclaimed.
	Delete(off, size int64) (int, error)
}

// Flusher is implemented by files that can force the driver's write-back
// without closing the handle (MPI_File_sync). UniviStor triggers the
// asynchronous server-side flush; drivers with synchronous writes have
// nothing to flush and do not implement it.
type Flusher interface {
	// Flush is collective: every rank of the application must call it.
	Flush() error
}

// Tagger is implemented by files whose size-only writes can carry a content
// tag. UniviStor folds the tag into the dedup layer's block fingerprints:
// two writes with equal tags at the same place stand for identical bytes,
// so a workload can model unchanged checkpoint regions without shipping
// payloads. Drivers without dedup ignore the tag.
type Tagger interface {
	// WriteAtTagged is WriteAt with a 64-bit content identity for the
	// written range. With real payload data the tag is ignored.
	WriteAtTagged(off, size int64, data []byte, tag uint64) error
}

// WriteTagged writes through f's Tagger interface when it has one and
// falls back to a plain WriteAt otherwise, so workloads can tag segments
// without caring which driver is underneath.
func WriteTagged(f File, off, size int64, data []byte, tag uint64) error {
	if t, ok := f.(Tagger); ok {
		return t.WriteAtTagged(off, size, data, tag)
	}
	return f.WriteAt(off, size, data)
}

// Driver is an ADIO file-system driver. Open is collective: every rank of
// the application must call it with identical arguments.
type Driver interface {
	Name() string
	Open(r *mpi.Rank, name string, mode mpi.Mode) (File, error)
}

// Env is a job's MPI-IO environment: the one driver its files open
// through, named like the ROMIO_FSTYPE_FORCE value that selects it.
type Env struct {
	d Driver
}

// NewEnv returns an environment running on d, which must be the driver
// named fstype.
func NewEnv(fstype string, d Driver) (*Env, error) {
	if d.Name() != fstype {
		return nil, fmt.Errorf("mpiio: driver %q is not %q", d.Name(), fstype)
	}
	return &Env{d: d}, nil
}

// Open is the collective MPI_File_open through the environment's driver.
func (e *Env) Open(r *mpi.Rank, name string, mode mpi.Mode) (File, error) {
	return e.d.Open(r, name, mode)
}
