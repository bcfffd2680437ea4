// Package units provides byte, rate and duration helpers shared by the
// simulator. All simulated time is expressed in float64 seconds and all
// data sizes in float64 bytes; this package centralizes the constants and
// formatting so the rest of the code can stay unit-honest.
package units

import "fmt"

// Data size constants, in bytes. The paper quotes decimal units (a
// "4.2 GB" input set), so these are SI powers of 1000, not powers of 1024.
const (
	B  = 1.0
	KB = 1e3
	MB = 1e6
	GB = 1e9
	TB = 1e12
)

// Binary (IEC) sizes, used for memory capacities which vendors quote in
// binary units (a 7 GB instance has 7*GiB of RAM).
const (
	KiB = 1024.0
	MiB = 1024.0 * 1024.0
	GiB = 1024.0 * 1024.0 * 1024.0
)

// Time constants, in seconds.
const (
	Second = 1.0
	Minute = 60.0
	Hour   = 3600.0
)

// MBps converts a rate expressed in megabytes per second to bytes per
// second, the unit used by all resource capacities.
func MBps(v float64) float64 { return v * MB }

// Bytes formats a byte count using the largest SI unit that keeps the
// mantissa >= 1, e.g. "4.20 GB".
func Bytes(v float64) string {
	switch {
	case v >= TB:
		return fmt.Sprintf("%.2f TB", v/TB)
	case v >= GB:
		return fmt.Sprintf("%.2f GB", v/GB)
	case v >= MB:
		return fmt.Sprintf("%.2f MB", v/MB)
	case v >= KB:
		return fmt.Sprintf("%.2f KB", v/KB)
	}
	return fmt.Sprintf("%.0f B", v)
}

// Rate formats a bandwidth in bytes/second, e.g. "310.0 MB/s".
func Rate(v float64) string {
	switch {
	case v >= GB:
		return fmt.Sprintf("%.2f GB/s", v/GB)
	case v >= MB:
		return fmt.Sprintf("%.1f MB/s", v/MB)
	case v >= KB:
		return fmt.Sprintf("%.1f KB/s", v/KB)
	}
	return fmt.Sprintf("%.0f B/s", v)
}

// Duration formats simulated seconds as "1h02m03s", "4m05s" or "12.3s".
func Duration(sec float64) string {
	switch {
	case sec >= Hour:
		h := int(sec / Hour)
		m := int(sec/Minute) % 60
		s := int(sec) % 60
		return fmt.Sprintf("%dh%02dm%02ds", h, m, s)
	case sec >= Minute:
		m := int(sec / Minute)
		s := sec - float64(m)*Minute
		return fmt.Sprintf("%dm%04.1fs", m, s)
	}
	return fmt.Sprintf("%.1fs", sec)
}

// USD formats a dollar amount with the precision the paper's cost figures
// use (cents, with sub-cent amounts kept to 4 decimals).
func USD(v float64) string {
	if v != 0 && v < 0.01 && v > -0.01 {
		return fmt.Sprintf("$%.4f", v)
	}
	return fmt.Sprintf("$%.2f", v)
}
