package fault

import (
	"bufio"
	"io"
	"net"

	"repro/internal/rng"
)

// Transport faulting models a lossy operator link at line granularity:
// response lines read through a wrapped transport are deterministically
// dropped (the reader never sees them — to a client with a deadline
// this is indistinguishable from a hung link) or garbled (the framing
// bytes are corrupted, so the line parses as neither "ok" nor "err").
// Writes pass through untouched: faulting the command direction would
// only exercise the server's unknown-command path, which the garble
// fault already covers from the client's point of view.

// lineFaults applies per-line drop/garble decisions to a read stream.
type lineFaults struct {
	br      *bufio.Reader
	src     *rng.Source
	drop    float64
	garble  float64
	pending []byte
	hits    *hits // the owning injector's counters, resolved at fire time
}

//lint:ignore deadcode FSP fault path, kept until the sentinel's link takes a fault profile or the path is deleted
func newLineFaults(r io.Reader, src *rng.Source, drop, garble float64, h *hits) *lineFaults {
	return &lineFaults{br: bufio.NewReaderSize(r, 4096), src: src, drop: drop, garble: garble, hits: h}
}

// Read delivers bytes of the next surviving (possibly garbled) line.
func (lf *lineFaults) Read(p []byte) (int, error) {
	for len(lf.pending) == 0 {
		line, err := lf.br.ReadString('\n')
		if err != nil {
			if len(line) > 0 {
				// Partial line interrupted by an error (deadline, EOF):
				// deliver the bytes untouched rather than losing them —
				// no fault decision is made on incomplete frames.
				lf.pending = []byte(line)
				break
			}
			return 0, err
		}
		switch u := lf.src.Float64(); {
		case u < lf.drop:
			lf.hits.linesDropped.Inc()
			continue // line lost on the wire
		case u < lf.drop+lf.garble:
			lf.hits.linesGarbled.Inc()
			lf.pending = garbleLine(line)
		default:
			lf.pending = []byte(line)
		}
	}
	n := copy(p, lf.pending)
	lf.pending = lf.pending[n:]
	return n, nil
}

// garbleLine corrupts a line's framing: the leading bytes are
// overwritten so the line can no longer start with "ok" or "err",
// forcing the reader's garble detection rather than a silent wrong
// value.
func garbleLine(line string) []byte {
	b := []byte(line)
	for i := 0; i < len(b) && i < 2 && b[i] != '\n'; i++ {
		b[i] = '#'
	}
	return b
}

// Conn wraps a net.Conn so lines read from it suffer the injector's
// drop/garble faults. Deadlines, writes and Close pass through to the
// wrapped connection, so client timeouts keep working — a dropped line
// surfaces as a read deadline timeout, exactly like a hung link.
type Conn struct {
	net.Conn
	lf *lineFaults
}

func (c *Conn) Read(p []byte) (int, error) { return c.lf.Read(p) }

// WrapConn wraps a network transport with this injector's drop/garble
// profile. Each wrapped connection draws from its own stream, so
// concurrent connections fault independently and deterministically.
//
//lint:ignore deadcode FSP fault path, kept until the sentinel's link takes a fault profile or the path is deleted
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	if in.profile.DropProb == 0 && in.profile.GarbleProb == 0 {
		return c
	}
	in.conns++
	src := in.root.SplitIndex("conn", in.conns)
	return &Conn{Conn: c, lf: newLineFaults(c, src, in.profile.DropProb, in.profile.GarbleProb, &in.hits)}
}

// readWriter is WrapReadWriter's deadline-less transport.
type readWriter struct {
	lf *lineFaults
	w  io.Writer
}

func (rw *readWriter) Read(p []byte) (int, error)  { return rw.lf.Read(p) }
func (rw *readWriter) Write(p []byte) (int, error) { return rw.w.Write(p) }

// WrapReadWriter is WrapConn for plain stream transports (pipes,
// buffers). Without deadlines a dropped line blocks the reader until
// more data arrives, so prefer WrapConn when timeout behaviour matters.
//
//lint:ignore deadcode FSP fault path, kept until the sentinel's link takes a fault profile or the path is deleted
func (in *Injector) WrapReadWriter(rw io.ReadWriter) io.ReadWriter {
	if in.profile.DropProb == 0 && in.profile.GarbleProb == 0 {
		return rw
	}
	in.conns++
	src := in.root.SplitIndex("conn", in.conns)
	return &readWriter{lf: newLineFaults(rw, src, in.profile.DropProb, in.profile.GarbleProb, &in.hits), w: rw}
}
