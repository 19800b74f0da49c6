// Package hdf5lite is a minimal HDF5-flavoured container layered on the
// MPI-IO File abstraction: a fixed metadata region at the head of the file
// holds a serialized dataset table (superblock + object headers, in HDF5
// terms), and dataset elements live in contiguous extents behind it.
//
// It reproduces the two HDF5 behaviours the paper depends on:
//
//   - the shared-file layout scientific applications actually write
//     (VPIC-IO: eight particle-property datasets in one shared file);
//
//   - metadata-region traffic at dataset create/open and file close, which
//     is all-ranks-to-one-region without the collective optimization and
//     root-plus-broadcast with it (§II-F).
package hdf5lite

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"univistor/internal/mpi"
	"univistor/internal/mpiio"
)

// MetaRegionSize is the reserved metadata region at the file head.
const MetaRegionSize = 64 << 10

var magic = [4]byte{'H', '5', 'L', 'T'}

// DatasetInfo describes one dataset in the table.
type DatasetInfo struct {
	Name     string
	ElemSize int64
	Count    int64 // total elements across all ranks
	Offset   int64 // byte offset of element 0 in the file
}

// File is an open hdf5lite container.
//
// In collective mode only the root reads, decodes, encodes and writes the
// metadata region; every other rank holds the table the root broadcast,
// sharing its backing array, and never appends to it. So a collective
// file's dataset table exists once, not once per rank.
type File struct {
	f          mpiio.File
	r          *mpi.Rank
	collective bool
	mode       mpi.Mode
	table      []DatasetInfo
	nextOff    int64
	dirty      bool
	closed     bool
	// encBuf is the metadata-region encode buffer, reused across flushes:
	// the region is rewritten on every dataset create and at close, and a
	// fresh 64 KiB allocation per flush dominated whole-simulation
	// allocation profiles. The MPI-IO layer copies written bytes, so the
	// buffer may be overwritten by the next flush.
	encBuf []byte
}

// rootResult is what the root broadcasts after its metadata-region I/O in
// collective mode. table is the root's slice value at that instant, not a
// pointer to the root's File: the root may append the next dataset before
// a slower rank returns from its broadcast, and that rank must still see
// the table as of this call. err carries a failed region read or write to
// every rank, so none is left waiting on a broadcast the root never joins.
type rootResult struct {
	table   []DatasetInfo
	nextOff int64
	err     error
}

// Create starts a new container on a write-mode MPI file. With collective
// set, only the root performs metadata-region I/O and broadcasts the table;
// otherwise every rank reads/writes the metadata region itself.
func Create(r *mpi.Rank, f mpiio.File, collective bool) *File {
	return &File{f: f, r: r, collective: collective, mode: mpi.WriteOnly, nextOff: MetaRegionSize}
}

// Open loads the dataset table of an existing container from a read-mode
// MPI file. In collective mode the root reads and decodes the region and
// broadcasts the decoded table, which every rank then shares.
func Open(r *mpi.Rank, f mpiio.File, collective bool) (*File, error) {
	h := &File{f: f, r: r, collective: collective, mode: mpi.ReadOnly}
	var res rootResult
	if !collective || r.Rank() == 0 {
		var raw []byte
		if raw, res.err = f.ReadAt(0, MetaRegionSize); res.err == nil {
			res.table, res.nextOff, res.err = decodeTable(raw)
		}
	}
	if collective {
		var payload any
		if r.Rank() == 0 {
			payload = res
		}
		res = r.Bcast(0, MetaRegionSize, payload).(rootResult)
	}
	if res.err != nil {
		return nil, res.err
	}
	h.table, h.nextOff = res.table, res.nextOff
	return h, nil
}

// CreateDataset appends a dataset of count elements of elemSize bytes and
// returns its handle. Collective: all ranks must call with the same
// arguments. Every rank checks the name and that the table still fits the
// metadata region, so a bad call fails on every rank, not just the root.
func (h *File) CreateDataset(name string, elemSize, count int64) (Dataset, error) {
	if h.mode != mpi.WriteOnly {
		return Dataset{}, fmt.Errorf("hdf5lite: CreateDataset on read-only file")
	}
	if elemSize <= 0 || count <= 0 {
		return Dataset{}, fmt.Errorf("hdf5lite: dataset %q needs positive elemSize and count", name)
	}
	if len(name) == 0 || len(name) > 255 {
		return Dataset{}, fmt.Errorf("hdf5lite: dataset name length %d outside [1,255]", len(name))
	}
	for _, d := range h.table {
		if d.Name == name {
			return Dataset{}, fmt.Errorf("hdf5lite: dataset %q already exists", name)
		}
	}
	if n := encodedSize(h.table) + entrySize(name); n > MetaRegionSize {
		return Dataset{}, fmt.Errorf("hdf5lite: dataset table (%d bytes) exceeds metadata region", n)
	}
	if !h.collective || h.r.Rank() == 0 {
		h.table = append(h.table, DatasetInfo{Name: name, ElemSize: elemSize, Count: count, Offset: h.nextOff})
		h.nextOff += elemSize * count
	}
	h.dirty = true
	if err := h.writeMeta(); err != nil {
		return Dataset{}, err
	}
	return Dataset{h: h, info: h.table[len(h.table)-1]}, nil
}

// OpenDataset returns a handle on an existing dataset.
func (h *File) OpenDataset(name string) (Dataset, error) {
	for _, d := range h.table {
		if d.Name == name {
			return Dataset{h: h, info: d}, nil
		}
	}
	return Dataset{}, fmt.Errorf("hdf5lite: no dataset %q", name)
}

// writeMeta persists the dataset table into the metadata region. Without
// the collective optimization every rank encodes and writes the region
// (all-to-one traffic at the region's home); with it, only the root does,
// and every other rank takes the root's table from the completion
// broadcast.
func (h *File) writeMeta() error {
	var res rootResult
	if !h.collective || h.r.Rank() == 0 {
		h.encBuf = encodeTable(h.table, h.nextOff, h.encBuf)
		res = rootResult{h.table, h.nextOff, h.f.WriteAt(0, MetaRegionSize, h.encBuf)}
	}
	if h.collective {
		var payload any
		if h.r.Rank() == 0 {
			payload = res
		}
		res = h.r.Bcast(0, 64, payload).(rootResult) // completion notification
		h.table, h.nextOff = res.table, res.nextOff
	}
	return res.err
}

// Close flushes the metadata region (write mode) and closes the MPI file.
func (h *File) Close() error {
	if h.closed {
		return fmt.Errorf("hdf5lite: double close")
	}
	h.closed = true
	if h.mode == mpi.WriteOnly && h.dirty {
		if err := h.writeMeta(); err != nil {
			return err
		}
	}
	return h.f.Close()
}

// Dataset is a handle on one dataset. It is a value: a handle is a file
// pointer and a copy of the dataset's table entry.
type Dataset struct {
	h    *File
	info DatasetInfo
}

// Info returns the dataset's table entry.
func (d *Dataset) Info() DatasetInfo { return d.info }

// WriteElems writes count elements starting at element index elemOff. data
// may be nil for size-only runs.
func (d *Dataset) WriteElems(elemOff, count int64, data []byte) error {
	if elemOff < 0 || elemOff+count > d.info.Count {
		return fmt.Errorf("hdf5lite: elements [%d,%d) outside dataset %q of %d",
			elemOff, elemOff+count, d.info.Name, d.info.Count)
	}
	return d.h.f.WriteAt(d.info.Offset+elemOff*d.info.ElemSize, count*d.info.ElemSize, data)
}

// ReadElems reads count elements starting at element index elemOff.
func (d *Dataset) ReadElems(elemOff, count int64) ([]byte, error) {
	if elemOff < 0 || elemOff+count > d.info.Count {
		return nil, fmt.Errorf("hdf5lite: elements [%d,%d) outside dataset %q of %d",
			elemOff, elemOff+count, d.info.Name, d.info.Count)
	}
	return d.h.f.ReadAt(d.info.Offset+elemOff*d.info.ElemSize, count*d.info.ElemSize)
}

// ---------------------------------------------------------------------------
// Table serialization.

// encodedSize returns the serialized table length in bytes (header plus
// one length-prefixed name and three int64 fields per dataset).
func encodedSize(table []DatasetInfo) int {
	n := 20
	for _, d := range table {
		n += entrySize(d.Name)
	}
	return n
}

// entrySize is one dataset's serialized length: a length-prefixed name and
// three int64 fields.
func entrySize(name string) int { return 1 + len(name) + 24 }

// encodeTable serializes the table into buf (grown to MetaRegionSize on
// first use, reused afterwards) and returns it. The caller must have
// checked encodedSize against MetaRegionSize. Fields are packed with
// direct little-endian stores — the reflection-driven binary.Write path
// allocated per field and showed up as the top allocation site of whole
// simulations.
func encodeTable(table []DatasetInfo, nextOff int64, buf []byte) []byte {
	if cap(buf) < MetaRegionSize {
		buf = make([]byte, MetaRegionSize)
	}
	out := buf[:MetaRegionSize]
	p := copy(out, magic[:])
	binary.LittleEndian.PutUint64(out[p:], uint64(len(table)))
	binary.LittleEndian.PutUint64(out[p+8:], uint64(nextOff))
	p += 16
	for _, d := range table {
		out[p] = uint8(len(d.Name))
		p++
		p += copy(out[p:], d.Name)
		binary.LittleEndian.PutUint64(out[p:], uint64(d.ElemSize))
		binary.LittleEndian.PutUint64(out[p+8:], uint64(d.Count))
		binary.LittleEndian.PutUint64(out[p+16:], uint64(d.Offset))
		p += 24
	}
	// Zero the tail so reused buffers always produce the exact bytes a
	// fresh zeroed region would.
	clear(out[p:])
	return out
}

// decodeTable parses a metadata region, reading each field straight off
// the bytes and checking every entry against the region's end.
func decodeTable(raw []byte) (table []DatasetInfo, nextOff int64, err error) {
	if len(raw) < 20 || !bytes.Equal(raw[:4], magic[:]) {
		return nil, 0, fmt.Errorf("hdf5lite: bad magic — not an hdf5lite file")
	}
	n := int64(binary.LittleEndian.Uint64(raw[4:]))
	nextOff = int64(binary.LittleEndian.Uint64(raw[12:]))
	if n < 0 || n > 1<<12 {
		return nil, 0, fmt.Errorf("hdf5lite: implausible dataset count %d", n)
	}
	table = make([]DatasetInfo, n)
	p := 20
	for i := range table {
		if p >= len(raw) || p+1+int(raw[p])+24 > len(raw) {
			return nil, 0, fmt.Errorf("hdf5lite: dataset %d runs past the metadata region", i)
		}
		nameLen := int(raw[p])
		p++
		d := &table[i]
		d.Name = string(raw[p : p+nameLen])
		p += nameLen
		d.ElemSize = int64(binary.LittleEndian.Uint64(raw[p:]))
		d.Count = int64(binary.LittleEndian.Uint64(raw[p+8:]))
		d.Offset = int64(binary.LittleEndian.Uint64(raw[p+16:]))
		p += 24
	}
	return table, nextOff, nil
}
