package mpiio

import (
	"univistor/internal/core"
	"univistor/internal/mpi"
)

// UniviStorDriver redirects MPI-IO traffic into a running UniviStor
// deployment — the paper's ADIO driver enabled by
// ROMIO_FSTYPE_FORCE=UniviStor.
type UniviStorDriver struct {
	Sys     *core.System
	clients map[*mpi.Rank]*core.Client
}

// NewUniviStorDriver wraps a UniviStor system as an ADIO driver.
func NewUniviStorDriver(sys *core.System) *UniviStorDriver {
	return &UniviStorDriver{Sys: sys, clients: map[*mpi.Rank]*core.Client{}}
}

// Name returns "univistor".
func (d *UniviStorDriver) Name() string { return "univistor" }

// Disconnect detaches a rank (the MPI_Finalize hook). Harmless if the rank
// never connected.
func (d *UniviStorDriver) Disconnect(r *mpi.Rank) { delete(d.clients, r) }

// Open is the collective open through UniviStor. A rank's first open
// connects its client (the MPI_Init-time connection of the paper's
// connection-management module); the file handle is core's client file.
func (d *UniviStorDriver) Open(r *mpi.Rank, name string, mode mpi.Mode) (File, error) {
	c, ok := d.clients[r]
	if !ok {
		c = d.Sys.Connect(r)
		d.clients[r] = c
	}
	cf, err := c.Open(name, mode)
	if err != nil {
		return nil, err
	}
	return cf, nil
}

var (
	_ File    = (*core.ClientFile)(nil)
	_ Deleter = (*core.ClientFile)(nil)
	_ Tagger  = (*core.ClientFile)(nil)
	_ Flusher = (*core.ClientFile)(nil)
)
