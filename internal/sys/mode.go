package sys

import (
	"fmt"
	"strings"
)

// Mode selects the execution configuration of §6.
type Mode int

const (
	// InCore runs everything on the OOO cores with prefetchers; nothing
	// is offloaded.
	InCore Mode = iota
	// NearL3 offloads streams to the L3 stream engines but is oblivious
	// to data affinity (baseline allocator, original data structures).
	NearL3
	// AffAlloc is NearL3 plus affinity allocation and the co-designed
	// data structures.
	AffAlloc
)

func (m Mode) String() string {
	switch m {
	case InCore:
		return "In-Core"
	case NearL3:
		return "Near-L3"
	case AffAlloc:
		return "Aff-Alloc"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists the three configurations in presentation order.
var Modes = []Mode{InCore, NearL3, AffAlloc}

// modeSeparators strips the separators ParseMode ignores. A Replacer is
// safe for concurrent use, so one serves every call.
var modeSeparators = strings.NewReplacer("-", "", "_", "", " ", "")

// ParseMode converts a mode name back to a Mode, round-tripping with
// String: ParseMode(m.String()) == m for every mode. Matching is
// case-insensitive and ignores '-'/'_' separators, so CLI spellings like
// "incore", "near_l3" and "Aff-Alloc" all parse.
func ParseMode(v string) (Mode, error) {
	key := modeSeparators.Replace(strings.ToLower(v))
	switch key {
	case "incore":
		return InCore, nil
	case "nearl3":
		return NearL3, nil
	case "affalloc":
		return AffAlloc, nil
	}
	return 0, fmt.Errorf("sys: unknown mode %q (want In-Core, Near-L3 or Aff-Alloc)", v)
}

// MarshalText serializes the mode as its canonical name, so modes
// survive a JSON round trip.
func (m Mode) MarshalText() ([]byte, error) {
	if m < InCore || m > AffAlloc {
		return nil, fmt.Errorf("sys: cannot marshal invalid mode %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a mode name (see ParseMode).
func (m *Mode) UnmarshalText(b []byte) error {
	v, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}
