package m3fs

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// refSplitPath is the path splitter the resolver used before it stepped
// through components in place. It is the reference for walk and
// MustMkdirAll.
func refSplitPath(path string) []string {
	var parts []string
	for _, s := range strings.Split(path, "/") {
		if s != "" {
			parts = append(parts, s)
		}
	}
	return parts
}

// refWalk is walk over refSplitPath.
func refWalk(fs *FS, path string) (parent *dirNode, name string, n node) {
	parts := refSplitPath(path)
	if len(parts) == 0 {
		return nil, "", fs.root
	}
	d := fs.root
	for _, part := range parts[:len(parts)-1] {
		next, ok := d.entries[part].(*dirNode)
		if !ok {
			return nil, "", nil
		}
		d = next
	}
	name = parts[len(parts)-1]
	return d, name, d.entries[name]
}

// refMkdirAll is MustMkdirAll over refSplitPath.
func refMkdirAll(fs *FS, path string) {
	d := fs.root
	for _, part := range refSplitPath(path) {
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

// pathImage builds /a/b (directories), /a/f and /a/b/x (files).
func pathImage() *FS {
	fs := NewFS(Config{}, nil)
	refMkdirAll(fs, "/a/b")
	fs.MustCreate("/a/f", 10)
	fs.MustCreate("/a/b/x", 10)
	return fs
}

// dumpTree lists every node under d as "path/" (directory) or "path"
// (file), sorted.
func dumpTree(d *dirNode, prefix string, out *[]string) {
	for name, n := range d.entries {
		if sub, ok := n.(*dirNode); ok {
			*out = append(*out, prefix+name+"/")
			dumpTree(sub, prefix+name+"/", out)
		} else {
			*out = append(*out, prefix+name)
		}
	}
	sort.Strings(*out)
}

// mkdirResult runs mkdir on a fresh image and reports the resulting tree
// and the panic, if any.
func mkdirResult(mkdir func(*FS, string), path string) (tree []string, panicked any) {
	fs := pathImage()
	func() {
		defer func() { panicked = recover() }()
		mkdir(fs, path)
	}()
	dumpTree(fs.root, "/", &tree)
	return tree, panicked
}

var pathCases = []string{
	"", "/", "//", "a", "/a", "a/", "//a//b/", "a/b", "/a/b/x", "a//b//x/",
	"/a/f", "/a/f/x", "/a/f/x/y", "/missing", "/missing/x", "/a/b/new", "/new/deeper/dir",
}

// TestWalkMatchesSplitPath: walk resolves every path to the same parent,
// name and node as the splitPath-based resolver, including empty and
// slash-only paths, repeated slashes and a file as a middle component.
func TestWalkMatchesSplitPath(t *testing.T) {
	fs := pathImage()
	for _, path := range pathCases {
		gp, gn, gnode := fs.walk(path)
		wp, wn, wnode := refWalk(fs, path)
		if gp != wp || gn != wn || gnode != wnode {
			t.Errorf("walk(%q) = (%p, %q, %v), reference (%p, %q, %v)", path, gp, gn, gnode, wp, wn, wnode)
		}
	}
}

// TestMkdirAllMatchesSplitPath: MustMkdirAll builds the same tree as the
// splitPath-based version and panics on the same paths (a file as a
// component).
func TestMkdirAllMatchesSplitPath(t *testing.T) {
	for _, path := range pathCases {
		got, gotPanic := mkdirResult((*FS).MustMkdirAll, path)
		want, wantPanic := mkdirResult(refMkdirAll, path)
		if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
			t.Errorf("MustMkdirAll(%q): tree %v panic %v, reference tree %v panic %v", path, got, gotPanic, want, wantPanic)
		}
	}
}

// TestWalkAllocatesNothing: resolving a path steps through it in place.
func TestWalkAllocatesNothing(t *testing.T) {
	fs := pathImage()
	if got := testing.AllocsPerRun(100, func() { fs.walk("//a//b/x") }); got != 0 {
		t.Errorf("walk allocates %.1f objects, want 0", got)
	}
}
