//go:build !linux

package mman

import "os"

// mapFile off Linux reads the file into an anonymous slice: same bytes,
// same Region lifecycle, no shared pages.
func mapFile(path string) ([]byte, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	if len(data) == 0 {
		return nil, false, nil
	}
	return data, false, nil
}

func unmapBytes([]byte) error { return nil }
