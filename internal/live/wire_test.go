package live

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
)

func TestTransientSendErrClassifier(t *testing.T) {
	wrap := func(err error) error {
		return &net.OpError{Op: "write", Net: "udp", Err: fmt.Errorf("sendto: %w", err)}
	}
	for _, tc := range []struct {
		err       error
		transient bool
	}{
		{syscall.ENOBUFS, true},
		{syscall.EAGAIN, true},
		{syscall.EWOULDBLOCK, true},
		{wrap(syscall.ENOBUFS), true},
		{wrap(syscall.EAGAIN), true},
		{syscall.ECONNREFUSED, false},
		{syscall.EPERM, false},
		{wrap(syscall.EHOSTUNREACH), false},
		{errors.New("something else"), false},
	} {
		if got := transientSendErr(tc.err); got != tc.transient {
			t.Errorf("transientSendErr(%v) = %v, want %v", tc.err, got, tc.transient)
		}
	}
}
