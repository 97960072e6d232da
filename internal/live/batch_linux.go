//go:build linux

// Batched send backend for the mux: sendmmsg via a raw syscall on the
// netpoller-managed fd, one bundle per message. golang.org/x/sys is
// deliberately not used — the repo is dependency-free — and the stdlib
// syscall package supplies the Msghdr/Iovec layouts; the syscall number
// comes from the per-arch sysnum_linux_*.go files (the older stdlib tables
// predate sendmmsg) and only the mmsghdr wrapper (Msghdr plus the
// kernel-filled per-message length) needs declaring here. Its Go layout
// matches the C struct: trailing padding after the uint32 aligns it
// identically.
//
// The syscall runs inside a RawConn.Write callback with MSG_DONTWAIT:
// EAGAIN returns false to re-park the goroutine on the netpoller, so the
// mux blocks exactly like a net.UDPConn write and unblocks on Close.

package live

import (
	"fmt"
	"net"
	"syscall"
	"unsafe"
)

// batchedSyscalls reports at build time that this platform moves whole
// batches per syscall.
const batchedSyscalls = true

// setIovlen assigns Msghdr.Iovlen across arches (uint64 on 64-bit ABIs,
// uint32 on 32-bit ones; the stdlib offers no setter). The size test is a
// compile-time constant, so one branch survives.
func setIovlen(h *syscall.Msghdr, n int) {
	if unsafe.Sizeof(h.Iovlen) == 8 {
		*(*uint64)(unsafe.Pointer(&h.Iovlen)) = uint64(n)
	} else {
		*(*uint32)(unsafe.Pointer(&h.Iovlen)) = uint32(n)
	}
}

// mmsghdr mirrors struct mmsghdr: one message plus the kernel's count of
// bytes transferred for it.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// batchIO is the persistent syscall state: header and iovec arrays sized
// once and re-pointed at the frames of each batch, plus the RawConn
// callback built once — the batched path allocates nothing per call (a
// fresh closure per rc.Write would cost a heap allocation each batch and
// break the wire path's zero-alloc gate).
type batchIO struct {
	whdrs []mmsghdr
	wiovs []syscall.Iovec // one per frame: a bundle gathers its frames
	wgrp  []int           // frames in each bundle
	wcb   func(fd uintptr) bool

	// Callback in/out parameters (the callback touches only these and the
	// arrays above, all owned by the flush goroutine).
	wn, wsent int
	werr      syscall.Errno
}

func (m *Mux) initBatchIO() {
	m.bio.whdrs = make([]mmsghdr, m.batch)
	m.bio.wiovs = make([]syscall.Iovec, m.batch)
	m.bio.wgrp = make([]int, m.batch)
	bio := &m.bio
	bio.wcb = func(fd uintptr) bool {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&bio.whdrs[0])), uintptr(bio.wn),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK {
			return false // socket buffer full: wait for writability
		}
		bio.werr = errno
		if errno == 0 {
			bio.wsent = int(r1)
		}
		return true
	}
}

// bundleCap is the largest bundle that reaches peer unfragmented: the
// route MTU, read with IP_MTU on a connected probe socket (connecting a
// UDP socket sends nothing), less the IP and UDP headers, and at most
// maxBundleBytes. Loopback therefore bundles up to maxBundleBytes; a path
// whose MTU cannot be read gets the portable Ethernet figure.
func bundleCap(peer *net.UDPAddr) int {
	c, err := net.DialUDP("udp", nil, peer)
	if err != nil {
		return portableBundleBytes
	}
	defer c.Close()
	rc, err := c.SyscallConn()
	if err != nil {
		return portableBundleBytes
	}
	level, opt, hdrs := syscall.IPPROTO_IP, syscall.IP_MTU, 20+8
	if peer.IP.To4() == nil {
		level, opt, hdrs = syscall.IPPROTO_IPV6, syscall.IPV6_MTU, 40+8
	}
	mtu, merr := 0, error(nil)
	if err := rc.Control(func(fd uintptr) { mtu, merr = syscall.GetsockoptInt(int(fd), level, opt) }); err != nil || merr != nil || mtu <= hdrs {
		return portableBundleBytes
	}
	return min(mtu-hdrs, maxBundleBytes)
}

// sockaddr is a prebuilt raw socket address: the bytes the kernel expects
// in msg_name, constructed once per peer at Attach so sendmmsg stamps
// per-message destinations with two stores.
type sockaddr struct {
	raw [syscall.SizeofSockaddrInet6]byte
	len uint32
}

// mkSockaddr lowers a UDP address to its raw sockaddr bytes (port in
// network byte order regardless of host endianness).
func mkSockaddr(a *net.UDPAddr) (sockaddr, error) {
	var s sockaddr
	if a == nil || a.IP == nil {
		return s, fmt.Errorf("nil peer address")
	}
	if ip4 := a.IP.To4(); ip4 != nil {
		var sa syscall.RawSockaddrInet4
		sa.Family = syscall.AF_INET
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0] = byte(a.Port >> 8)
		p[1] = byte(a.Port)
		copy(sa.Addr[:], ip4)
		n := copy(s.raw[:], (*(*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(&sa)))[:])
		s.len = uint32(n)
		return s, nil
	}
	ip16 := a.IP.To16()
	if ip16 == nil {
		return s, fmt.Errorf("unusable IP %v", a.IP)
	}
	var sa syscall.RawSockaddrInet6
	sa.Family = syscall.AF_INET6
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0] = byte(a.Port >> 8)
	p[1] = byte(a.Port)
	copy(sa.Addr[:], ip16)
	n := copy(s.raw[:], (*(*[syscall.SizeofSockaddrInet6]byte)(unsafe.Pointer(&sa)))[:])
	s.len = uint32(n)
	return s, nil
}

// writeBatchSys writes up to m.batch frames with one sendmmsg call. The
// caller has grouped the batch by peer (sendBatch), so each message is one
// bundle: a run of frames to one peer (bundleEnd) gathered by one iovec
// each, in batch order. Returns how many FRAMES the kernel accepted
// (bundles complete atomically, so k < len(frames) is a partial completion
// at a bundle boundary the caller continues from) and the errno,
// translated so transientSendErr recognizes it, when nothing was accepted.
func (m *Mux) writeBatchSys(frames []*frame) (int, error) {
	frames = frames[:min(len(frames), m.batch)]
	bio := &m.bio
	msgs := 0
	for i := 0; i < len(frames); {
		j := bundleEnd(frames, i)
		for k := i; k < j; k++ {
			iov := &bio.wiovs[k]
			iov.Base = &frames[k].data[0]
			iov.SetLen(frames[k].n)
		}
		p := frames[i].wire.to
		h := &bio.whdrs[msgs]
		h.hdr = syscall.Msghdr{
			Name:    &p.dst.raw[0],
			Namelen: p.dst.len,
			Iov:     &bio.wiovs[i],
		}
		setIovlen(&h.hdr, j-i)
		h.len = 0
		bio.wgrp[msgs] = j - i
		msgs++
		i = j
	}
	bio.wn, bio.wsent, bio.werr = msgs, 0, 0
	err := m.rc.Write(bio.wcb)
	sent := 0
	for i := 0; i < bio.wsent; i++ {
		sent += bio.wgrp[i]
	}
	m.txBundles.Add(uint64(bio.wsent))
	if err != nil {
		return sent, err
	}
	if bio.werr != 0 {
		return sent, bio.werr
	}
	return sent, nil
}
