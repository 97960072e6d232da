//go:build linux && amd64

package live

// The stdlib syscall number table for this arch was frozen before
// sendmmsg (kernel 3.0) landed, so the number is spelled out here.
const sysSendmmsg uintptr = 307
