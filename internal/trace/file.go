package trace

import (
	"fmt"
	"os"
)

// ReadFile loads a binary afftrace/v1 trace file.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// WriteFile writes a trace in the binary encoding, whatever the path's
// extension.
func WriteFile(path string, t *Trace) error {
	return os.WriteFile(path, Encode(t), 0o644)
}
