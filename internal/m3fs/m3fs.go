// Package m3fs implements the in-memory filesystem service of M3/SemperOS
// (paper §2.2): files live in global memory, and clients access file data
// through byte-granular memory capabilities handed out per file range —
// much like memory-mapped I/O, without involving the filesystem or the
// kernel on the data path.
//
// The service exposes two interfaces:
//
//   - a data-plane IPC interface (open, stat, mkdir, unlink, readdir,
//     extend, close) carried directly over the session's DTU channel, and
//   - capability exchanges over the session: a client obtains a memory
//     capability for a file extent; closing a file revokes the obtained
//     capabilities.
//
// Each service instance owns a private copy of the filesystem image
// (paper §5.3.1: scaling m3fs is done by adding instances, each with its
// own image).
package m3fs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// Config parameterizes a filesystem instance.
type Config struct {
	// ServiceName is the name registered in the service directory.
	ServiceName string
	// ExtentBytes is the size of one extent (default 1 MiB): the unit of
	// memory-capability hand-out.
	ExtentBytes uint64
	// ImageBytes is the size of the in-memory image (default 16 MiB).
	ImageBytes uint64

	// PathWalkCycles is the processing cost of resolving a path on top of
	// the base request cost (default 2000).
	PathWalkCycles sim.Duration
	// ExtentCycles is the per-extent cost of loading a file's extent table
	// on first open and of allocating new extents on extend (default 6500).
	// Extent tables are cached, so re-opens pay only the path walk — the
	// behavior that lets m3fs sustain file-churn workloads like PostMark.
	ExtentCycles sim.Duration
	// SessionCycles is the cost of setting up a client session (default
	// 5000).
	SessionCycles sim.Duration
}

func (c Config) withDefaults() Config {
	if c.ServiceName == "" {
		c.ServiceName = "m3fs"
	}
	if c.ExtentBytes == 0 {
		c.ExtentBytes = 1 << 20
	}
	if c.ImageBytes == 0 {
		c.ImageBytes = 16 << 20
	}
	if c.PathWalkCycles == 0 {
		c.PathWalkCycles = 1800
	}
	if c.ExtentCycles == 0 {
		c.ExtentCycles = 5000
	}
	if c.SessionCycles == 0 {
		c.SessionCycles = 5000
	}
	return c
}

// Stats counts service activity.
type Stats struct {
	Opens, Stats, Mkdirs, Unlinks, Readdirs, Extends, Closes uint64
	RangeObtains                                             uint64
	ExtentsDerived                                           uint64
	RevokesIssued                                            uint64
}

// --- request/reply payloads (data-plane IPC) ------------------------------

// ReqOpen opens (optionally creating/truncating) a file.
type ReqOpen struct {
	Path     string
	Create   bool
	Truncate bool
}

// RepOpen is the reply to ReqOpen.
type RepOpen struct {
	Err  core.Errno
	FD   int
	Size uint64
}

// ReqStat queries file metadata.
type ReqStat struct{ Path string }

// RepStat is the reply to ReqStat.
type RepStat struct {
	Err   core.Errno
	IsDir bool
	Size  uint64
}

// ReqMkdir creates a directory.
type ReqMkdir struct{ Path string }

// ReqUnlink removes a file, revoking all extent capabilities handed out
// for it.
type ReqUnlink struct{ Path string }

// ReqReaddir lists a directory.
type ReqReaddir struct{ Path string }

// RepReaddir is the reply to ReqReaddir.
type RepReaddir struct {
	Err     core.Errno
	Entries []string
}

// ReqExtend grows a file to NewSize, allocating extents.
type ReqExtend struct {
	FD      int
	NewSize uint64
}

// ReqClose closes a file descriptor.
type ReqClose struct{ FD int }

// RepGeneric is the reply to requests that only return a status.
type RepGeneric struct{ Err core.Errno }

// ObtainRange is the session-obtain argument: the client asks for a memory
// capability covering the file range starting at Off.
type ObtainRange struct {
	FD  int
	Off uint64
}

// RangeInfo describes the granted range (the session-obtain reply).
type RangeInfo struct {
	Off uint64 // start of the range within the file
	Len uint64 // length of the range
}

// --- filesystem state ------------------------------------------------------

type node interface{ isNode() }

type dirNode struct {
	entries map[string]node
}

type fileNode struct {
	id      uint64
	size    uint64
	extents []uint64 // image offsets, one per extent
	hot     bool     // extent table loaded (first open paid for it)
}

func (*dirNode) isNode()  {}
func (*fileNode) isNode() {}

type openFile struct {
	f *fileNode
}

type session struct {
	ident  uint64
	client int
	files  map[int]*openFile
	nextFD int
}

type extKey struct {
	fileID uint64
	idx    int
}

// FS is one filesystem service instance.
type FS struct {
	cfg      Config
	v        *core.VPE
	root     *dirNode
	rootSel  cap.Selector
	nextOff  uint64
	nextFile uint64
	nextSess uint64
	sessions map[uint64]*session
	extCaps  map[extKey]cap.Selector
	stats    Stats
}

// NewFS creates an (unstarted) filesystem instance for the given service
// VPE. Preload the image with MustCreate/MustMkdirAll, then call Start.
func NewFS(cfg Config, v *core.VPE) *FS {
	cfg = cfg.withDefaults()
	return &FS{
		cfg:      cfg,
		v:        v,
		root:     &dirNode{entries: make(map[string]node)},
		sessions: make(map[uint64]*session),
		extCaps:  make(map[extKey]cap.Selector),
	}
}

// Stats returns a snapshot of the instance's counters.
func (fs *FS) Stats() Stats { return fs.stats }

// Name returns the registered service name.
func (fs *FS) Name() string { return fs.cfg.ServiceName }

// Program returns a core.Program that runs a filesystem service: allocate
// the image, optionally preload it, register, and serve forever. ready (if
// non-nil) is completed with the FS once the service is registered.
func Program(cfg Config, preload func(*FS), ready *sim.Future[*FS]) core.Program {
	return func(v *core.VPE, p *sim.Proc) {
		fs := NewFS(cfg, v)
		if preload != nil {
			preload(fs)
		}
		if err := fs.Start(p); err != nil {
			panic(fmt.Sprintf("m3fs: start failed: %v", err))
		}
		if ready != nil {
			ready.Complete(fs)
		}
		v.ServeLoop(p)
	}
}

// Start allocates the image memory and registers the service.
func (fs *FS) Start(p *sim.Proc) error {
	sel, err := fs.v.AllocMem(p, fs.cfg.ImageBytes, dtu.PermRW)
	if err != nil {
		return err
	}
	fs.rootSel = sel
	return fs.v.RegisterService(p, fs.cfg.ServiceName, core.ServiceHandlers{
		Open:    fs.onOpen,
		Obtain:  fs.onObtain,
		Request: fs.onRequest,
	})
}

// --- path handling ---------------------------------------------------------

// cutPath returns the first component of path, skipping empty components
// (repeated, leading and trailing slashes), and the rest of the path after
// it. part is empty when path has no components left. Both results are
// substrings of path, so stepping through a path allocates nothing.
func cutPath(path string) (part, rest string) {
	for len(path) > 0 && path[0] == '/' {
		path = path[1:]
	}
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i], path[i+1:]
	}
	return path, ""
}

// walk resolves a path to its parent directory and final name.
func (fs *FS) walk(path string) (parent *dirNode, name string, n node) {
	part, rest := cutPath(path)
	if part == "" {
		return nil, "", fs.root
	}
	d := fs.root
	for {
		next, more := cutPath(rest)
		if next == "" {
			return d, part, d.entries[part]
		}
		child, ok := d.entries[part].(*dirNode)
		if !ok {
			return nil, "", nil
		}
		d = child
		part, rest = next, more
	}
}

// --- boot-time image construction -------------------------------------------

// MustMkdirAll creates a directory path in the image (boot time; no
// simulated cost).
func (fs *FS) MustMkdirAll(path string) {
	d := fs.root
	for part, rest := cutPath(path); part != ""; part, rest = cutPath(rest) {
		next, ok := d.entries[part]
		if !ok {
			nd := &dirNode{entries: make(map[string]node)}
			d.entries[part] = nd
			d = nd
			continue
		}
		dn, ok := next.(*dirNode)
		if !ok {
			panic("m3fs: path component is a file: " + path)
		}
		d = dn
	}
}

// MustCreate creates a file of the given size in the image (boot time).
func (fs *FS) MustCreate(path string, size uint64) {
	parent, name, existing := fs.walk(path)
	if parent == nil {
		panic("m3fs: missing parent directory: " + path)
	}
	if existing != nil {
		panic("m3fs: file exists: " + path)
	}
	f := &fileNode{id: fs.nextFile}
	fs.nextFile++
	if err := fs.grow(f, size); err != nil {
		panic("m3fs: image full while preloading " + path)
	}
	parent.entries[name] = f
}

// grow extends a file to newSize, allocating extents from the image.
func (fs *FS) grow(f *fileNode, newSize uint64) error {
	need := int((newSize + fs.cfg.ExtentBytes - 1) / fs.cfg.ExtentBytes)
	for len(f.extents) < need {
		if fs.nextOff+fs.cfg.ExtentBytes > fs.cfg.ImageBytes {
			return core.ErrOutOfMem
		}
		f.extents = append(f.extents, fs.nextOff)
		fs.nextOff += fs.cfg.ExtentBytes
	}
	if newSize > f.size {
		f.size = newSize
	}
	return nil
}

// --- service handlers --------------------------------------------------------

func (fs *FS) onOpen(p *sim.Proc, clientVPE int, args any) core.SvcResult {
	p.Sleep(fs.cfg.SessionCycles)
	fs.nextSess++
	ident := fs.nextSess
	fs.sessions[ident] = &session{ident: ident, client: clientVPE, files: make(map[int]*openFile)}
	return core.SvcResult{Ident: ident}
}

func (fs *FS) onObtain(p *sim.Proc, ident uint64, args any) core.SvcResult {
	sess := fs.sessions[ident]
	if sess == nil {
		return core.SvcResult{Errno: core.ErrBadArgs}
	}
	rng, ok := args.(ObtainRange)
	if !ok {
		return core.SvcResult{Errno: core.ErrBadArgs}
	}
	of := sess.files[rng.FD]
	if of == nil {
		return core.SvcResult{Errno: core.ErrBadArgs}
	}
	f := of.f
	idx := int(rng.Off / fs.cfg.ExtentBytes)
	if idx >= len(f.extents) {
		return core.SvcResult{Errno: core.ErrBadArgs}
	}
	sel, err := fs.extentCap(p, f, idx)
	if err != nil {
		return core.SvcResult{Errno: core.ErrOutOfMem}
	}
	fs.stats.RangeObtains++
	// The capability covers the whole extent: a client appending past it is
	// "provided with an additional memory capability to the next range"
	// (paper §5.3.1), not with overlapping re-grants of the same extent.
	start := uint64(idx) * fs.cfg.ExtentBytes
	return core.SvcResult{SrcSel: sel, Reply: RangeInfo{Off: start, Len: fs.cfg.ExtentBytes}}
}

// extentCap returns (deriving and caching on first use) the service-owned
// memory capability for one extent of a file.
func (fs *FS) extentCap(p *sim.Proc, f *fileNode, idx int) (cap.Selector, error) {
	if idx >= len(f.extents) {
		return cap.NoSel, core.ErrBadArgs
	}
	key := extKey{f.id, idx}
	if sel, ok := fs.extCaps[key]; ok {
		return sel, nil
	}
	sel, err := fs.v.DeriveMem(p, fs.rootSel, f.extents[idx], fs.cfg.ExtentBytes, dtu.PermRW)
	if err != nil {
		return cap.NoSel, err
	}
	fs.stats.ExtentsDerived++
	fs.extCaps[key] = sel
	return sel, nil
}

func (fs *FS) onRequest(p *sim.Proc, ident uint64, args any) any {
	sess := fs.sessions[ident]
	if sess == nil {
		return RepGeneric{Err: core.ErrBadArgs}
	}
	switch req := args.(type) {
	case ReqOpen:
		return fs.doOpen(p, sess, req)
	case ReqStat:
		return fs.doStat(p, req)
	case ReqMkdir:
		return fs.doMkdir(p, req)
	case ReqUnlink:
		return fs.doUnlink(p, req)
	case ReqReaddir:
		return fs.doReaddir(p, req)
	case ReqExtend:
		return fs.doExtend(p, sess, req)
	case ReqClose:
		fs.stats.Closes++
		delete(sess.files, req.FD)
		return RepGeneric{}
	default:
		return RepGeneric{Err: core.ErrBadArgs}
	}
}

func (fs *FS) doOpen(p *sim.Proc, sess *session, req ReqOpen) RepOpen {
	fs.stats.Opens++
	p.Sleep(fs.cfg.PathWalkCycles)
	parent, name, n := fs.walk(req.Path)
	f, isFile := n.(*fileNode)
	switch {
	case n == nil && req.Create:
		if parent == nil {
			return RepOpen{Err: core.ErrBadArgs}
		}
		f = &fileNode{id: fs.nextFile}
		fs.nextFile++
		parent.entries[name] = f
	case n == nil:
		return RepOpen{Err: core.ErrNoSuchCap}
	case !isFile:
		return RepOpen{Err: core.ErrBadArgs}
	}
	if req.Truncate && f.size > 0 {
		fs.truncate(p, f)
	}
	if !f.hot {
		// First open: load the extent table.
		p.Sleep(fs.cfg.ExtentCycles * sim.Duration(len(f.extents)))
		f.hot = true
	}
	sess.nextFD++
	fd := sess.nextFD
	sess.files[fd] = &openFile{f: f}
	return RepOpen{FD: fd, Size: f.size}
}

// truncate discards file content; capabilities handed out for its extents
// are revoked (the copy-on-write/consistency discipline §3 motivates).
func (fs *FS) truncate(p *sim.Proc, f *fileNode) {
	fs.revokeExtents(p, f)
	f.size = 0
	// Extents stay allocated (image is a simple bump allocator) but are
	// reused by the file as it grows again.
}

// revokeExtents revokes every capability derived for f's extents.
func (fs *FS) revokeExtents(p *sim.Proc, f *fileNode) {
	for idx := range f.extents {
		key := extKey{f.id, idx}
		if sel, ok := fs.extCaps[key]; ok {
			if err := fs.v.Revoke(p, sel); err == nil {
				fs.stats.RevokesIssued++
			}
			delete(fs.extCaps, key)
		}
	}
}

func (fs *FS) doStat(p *sim.Proc, req ReqStat) RepStat {
	fs.stats.Stats++
	p.Sleep(fs.cfg.PathWalkCycles)
	_, _, n := fs.walk(req.Path)
	switch t := n.(type) {
	case *fileNode:
		return RepStat{Size: t.size}
	case *dirNode:
		return RepStat{IsDir: true}
	default:
		return RepStat{Err: core.ErrNoSuchCap}
	}
}

func (fs *FS) doMkdir(p *sim.Proc, req ReqMkdir) RepGeneric {
	fs.stats.Mkdirs++
	p.Sleep(fs.cfg.PathWalkCycles)
	parent, name, n := fs.walk(req.Path)
	if parent == nil {
		return RepGeneric{Err: core.ErrBadArgs}
	}
	if n != nil {
		return RepGeneric{Err: core.ErrExists}
	}
	parent.entries[name] = &dirNode{entries: make(map[string]node)}
	return RepGeneric{}
}

func (fs *FS) doUnlink(p *sim.Proc, req ReqUnlink) RepGeneric {
	fs.stats.Unlinks++
	p.Sleep(fs.cfg.PathWalkCycles)
	parent, name, n := fs.walk(req.Path)
	f, ok := n.(*fileNode)
	if !ok {
		return RepGeneric{Err: core.ErrNoSuchCap}
	}
	fs.revokeExtents(p, f)
	delete(parent.entries, name)
	return RepGeneric{}
}

func (fs *FS) doReaddir(p *sim.Proc, req ReqReaddir) RepReaddir {
	fs.stats.Readdirs++
	p.Sleep(fs.cfg.PathWalkCycles)
	_, _, n := fs.walk(req.Path)
	d, ok := n.(*dirNode)
	if !ok {
		return RepReaddir{Err: core.ErrNoSuchCap}
	}
	entries := make([]string, 0, len(d.entries))
	for name := range d.entries {
		entries = append(entries, name)
	}
	sort.Strings(entries)
	return RepReaddir{Entries: entries}
}

func (fs *FS) doExtend(p *sim.Proc, sess *session, req ReqExtend) RepGeneric {
	fs.stats.Extends++
	of := sess.files[req.FD]
	if of == nil {
		return RepGeneric{Err: core.ErrBadArgs}
	}
	before := len(of.f.extents)
	if err := fs.grow(of.f, req.NewSize); err != nil {
		return RepGeneric{Err: core.ErrOutOfMem}
	}
	p.Sleep(fs.cfg.ExtentCycles * sim.Duration(len(of.f.extents)-before))
	return RepGeneric{}
}
