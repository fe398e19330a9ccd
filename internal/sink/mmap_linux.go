//go:build linux

package sink

// Zero-copy replay: the Reader maps a segment read-only and aliases the
// page cache as its []analysis.Event view (see Reader.load). The Writer
// does not map; it appends with WriteAt on every platform. Stdlib-only —
// raw syscall wrappers, no golang.org/x/sys dependency.

import (
	"os"
	"syscall"
)

const haveMmap = true

func mapRO(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

func unmap(b []byte) error { return syscall.Munmap(b) }
