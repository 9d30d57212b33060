// Package units provides byte-size types and helpers. The paper is explicit
// about the distinction between binary units (GiB = 2^30 bytes) and decimal
// units (GB = 10^9 bytes): memory sizes and measured bandwidths use GiB,
// while link rates such as the VE's 1228.8 GB/s HBM bandwidth use GB. This
// package keeps both spellable and unambiguous.
package units

import "fmt"

// Bytes is a byte count.
type Bytes int64

// Binary (IEC) units: 2^10 steps.
const (
	B   Bytes = 1
	KiB       = 1024 * B
	MiB       = 1024 * KiB
	GiB       = 1024 * MiB
	TiB       = 1024 * GiB
)

// Decimal (SI) units: 10^3 steps.
const (
	KB Bytes = 1000 * B
	MB       = 1000 * KB
	GB       = 1000 * MB
)

// Int64 returns b as an int64.
func (b Bytes) Int64() int64 { return int64(b) }

// GBs returns b as a floating-point decimal-GB count.
func (b Bytes) GBs() float64 { return float64(b) / float64(GB) }

// String renders b with an adaptive binary unit, e.g. "256MiB".
func (b Bytes) String() string {
	neg := ""
	v := b
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v < KiB:
		return fmt.Sprintf("%s%dB", neg, int64(v))
	case v < MiB:
		return fmtUnit(neg, float64(v)/float64(KiB), "KiB")
	case v < GiB:
		return fmtUnit(neg, float64(v)/float64(MiB), "MiB")
	case v < TiB:
		return fmtUnit(neg, float64(v)/float64(GiB), "GiB")
	default:
		return fmtUnit(neg, float64(v)/float64(TiB), "TiB")
	}
}

func fmtUnit(neg string, v float64, unit string) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%s%d%s", neg, int64(v), unit)
	}
	return fmt.Sprintf("%s%.4g%s", neg, v, unit)
}

// AlignUp rounds b up to the next multiple of align (a power of two or any
// positive value).
func AlignUp(b, align Bytes) Bytes {
	if align <= 0 {
		return b
	}
	rem := b % align
	if rem == 0 {
		return b
	}
	return b + align - rem
}

// IsPowerOfTwo reports whether b is a positive power of two.
func IsPowerOfTwo(b Bytes) bool { return b > 0 && b&(b-1) == 0 }
