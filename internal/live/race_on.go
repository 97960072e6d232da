//go:build race

package live

// raceEnabled lets the live layer scale its real-time load to what a
// race-instrumented binary can pump on one core: the interleavings under
// test don't need high rates, and an overloaded loop turns latency SLOs
// into noise. Tests shrink their offered load on it; ProtocolConfig
// additionally stretches the background pacing, since that load scales
// with link count rather than traffic.
const raceEnabled = true
