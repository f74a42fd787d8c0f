//go:build unix

package server

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"wavesched/internal/job"
	"wavesched/internal/netgraph"
)

// smallBufListener gives every accepted connection the smallest send buffer
// the kernel allows, so a response of a few tens of kilobytes cannot vanish
// into it when the client stops reading.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(1)
	}
	return c, err
}

// TestStalledScheduleReaderDoesNotBlockTick is the regression test for
// responses written under the server mutex: a client asks for /v1/schedule
// over a raw TCP connection, reads the head of the body and stops. Its
// handler is then stuck in the socket write for as long as the client likes
// (serve sets no WriteTimeout) — and must be stuck there without the lock, so
// that Tick and other requests go on.
func TestStalledScheduleReaderDoesNotBlockTick(t *testing.T) {
	// Every job has a one-wavelength link of its own and demand for all of
	// its slices, so the schedule lists each of the jobs×slices entries: the
	// compact body is some 130 KB. (Over one shared link a plan hands whole
	// slices to one job at a time, and the body would be a few per cent of it.)
	const jobs, slices = 16, 300
	s := newTestServer(t, netgraph.Line(jobs+1, 1, 10), Config{})
	h := s.Handler()
	for k := 1; k <= jobs; k++ {
		do(t, h, http.MethodPost, "/v1/jobs", submitBody(job.Job{
			ID: job.ID(k), Src: netgraph.NodeID(k - 1), Dst: netgraph.NodeID(k), Size: slices, Start: 0, End: slices,
		}), nil)
	}
	if err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	if n := do(t, h, http.MethodGet, "/v1/schedule", nil, nil).Body.Len(); n < 32<<10 {
		t.Fatalf("the schedule is %d bytes: too small to outgrow the socket buffers", n)
	}

	// The daemon's handler on a real listener, with a signal for when the
	// schedule request has been answered in full.
	answered := make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		close(answered)
	})}
	go srv.Serve(smallBufListener{ln})
	defer srv.Close()

	// The client: a receive buffer as small as the kernel allows, set before
	// the handshake advertises a window, and no HTTP library reading ahead.
	dialer := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	conn, err := dialer.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/schedule HTTP/1.1\r\nHost: wavesched\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReaderSize(conn, 512)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the response head: %v", err)
		}
		if strings.TrimSpace(line) == "" {
			break
		}
	}
	if _, err := io.ReadFull(rd, make([]byte, 256)); err != nil { // into the body, so the handler is past its snapshot
		t.Fatalf("reading the head of the body: %v", err)
	}
	// ... and the client reads no further.

	ticked := make(chan error, 1)
	go func() { ticked <- s.Tick() }()
	select {
	case err := <-ticked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Tick is blocked behind a client that stopped reading its /v1/schedule response")
	}
	var health healthzResponse
	do(t, h, http.MethodGet, "/v1/healthz", nil, &health)
	if health.Epochs != 2 {
		t.Fatalf("healthz reports %d epochs, want 2", health.Epochs)
	}
	select {
	case <-answered:
		t.Fatal("the whole response went out although the client stopped reading: the test stalled nothing")
	default:
	}

	// Hanging up fails the handler's write and lets it return.
	conn.Close()
	select {
	case <-answered:
	case <-time.After(20 * time.Second):
		t.Fatal("the handler did not return after the client hung up")
	}
}
