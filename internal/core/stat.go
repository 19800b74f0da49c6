package core

// Stat: the gateway's tenant-visible metadata operation. Unlike Open it is
// non-collective — a single client resolves one file's current logical
// size through the metadata service, paying one client round trip.

import (
	"univistor/internal/meta"
	"univistor/internal/trace"
)

// FileInfo is the result of a Stat.
type FileInfo struct {
	Name string
	// Size is the file's logical size in bytes (the extent of written
	// data, flushed or not).
	Size int64
}

// Stat resolves a file's logical size through the metadata service: one
// round trip, charged against the file's home metadata server in ring
// mode or the owning shard in plane mode. A stat of a nonexistent file
// costs the same round trip (the server still had to look) and reports
// ok = false.
func (c *Client) Stat(name string) (FileInfo, bool) {
	sys := c.sys
	p := c.rank.P
	sp := sys.W.Trace.Begin(p, trace.CatMeta, "stat")
	defer func() { sp.End(p.Now()) }()
	sys.metaDetail.StatOps++

	fs, ok := sys.files[name]
	var fid meta.FileID
	if ok {
		fid = fs.fid
	}
	sys.meta.stat(p, c.rank.Node(), name, fid)
	if !ok {
		return FileInfo{Name: name}, false
	}
	return FileInfo{Name: name, Size: fs.logicalSize}, true
}
