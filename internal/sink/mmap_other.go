//go:build !linux

package sink

// Portable replay: no mmap, the Reader loads the file with os.ReadFile —
// same file format, same replay semantics, one extra copy. The Writer is
// the same WriteAt appender on every platform.

import (
	"errors"
	"os"
)

const haveMmap = false

var errNoMmap = errors.New("sink: mmap not supported on this platform")

func mapRO(*os.File, int) ([]byte, error) { return nil, errNoMmap }
func unmap([]byte) error                  { return nil }
