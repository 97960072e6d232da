//go:build linux && !amd64 && !386

package live

import "syscall"

// Arches whose stdlib syscall tables were generated after kernel 3.0
// already carry the sendmmsg syscall number.
const sysSendmmsg uintptr = syscall.SYS_SENDMMSG
