//go:build linux

package mman

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile maps path read-only and hints random access (index queries
// touch rank directories and payload words in no particular order, so
// readahead would only pollute the page cache).
func mapFile(path string) ([]byte, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	size := st.Size()
	if size == 0 {
		return nil, false, nil
	}
	if size != int64(int(size)) {
		return nil, false, fmt.Errorf("mman: %s too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, fmt.Errorf("mman: mmap %s: %w", path, err)
	}
	// Best-effort hint; the mapping works the same without it.
	_ = syscall.Madvise(data, syscall.MADV_RANDOM)
	return data, true, nil
}

func unmapBytes(data []byte) error {
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
