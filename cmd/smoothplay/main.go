// Command smoothplay connects to a smoothd server, receives the smoothed
// stream, reconstructs it with the paper's timer-based client, and reports
// playout statistics.
//
// Usage:
//
//	smoothplay [-connect host:4321] [-delay D] [-buffer BYTES] [-streams K] [-v]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"repro/internal/netstream"
)

func main() {
	var (
		addr    = flag.String("connect", "localhost:4321", "server address")
		delay   = flag.Int("delay", 16, "desired smoothing delay in steps")
		buffer  = flag.Int("buffer", 0, "client buffer in bytes to advertise (0 = unlimited)")
		verbose = flag.Bool("v", false, "log every playout step")
		streams = flag.Int("streams", 1, "substreams to expect (matching smoothd -streams)")
	)
	flag.Parse()
	if *streams < 1 {
		log.Fatalf("smoothplay: -streams must be >= 1")
	}

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("smoothplay: %v", err)
	}
	defer conn.Close()

	// Per-substream split of what played, read off the play events.
	type streamStats struct {
		played, bytes int
		weight        float64
	}
	per := make([]streamStats, *streams)
	stats, err := netstream.Receive(conn, *buffer, *delay, *streams, func(ev netstream.PlayEvent) {
		for _, sl := range ev.Slices {
			ps := &per[sl.StreamID]
			ps.played++
			ps.bytes += sl.Size
			ps.weight += sl.Weight
		}
		if *verbose {
			log.Printf("step %d: played %d slices, %d incomplete", ev.Step, len(ev.Slices), ev.Incomplete)
		}
	})
	if err != nil {
		log.Fatalf("smoothplay: %v", err)
	}
	fmt.Printf("negotiated delay: %d steps\n", stats.Delay)
	fmt.Printf("played:           %d slices (%d bytes)\n", stats.Played, stats.PlayedBytes)
	if *streams > 1 {
		for i, ps := range per {
			fmt.Printf("  stream %d:       %d slices, %d bytes, weight %.0f\n", i, ps.played, ps.bytes, ps.weight)
		}
	}
	fmt.Printf("incomplete:       %d slices\n", stats.Incomplete)
	fmt.Printf("late bytes:       %d\n", stats.LateBytes)
	fmt.Printf("peak buffer:      %d bytes\n", stats.MaxBuffer)
	if stats.Corrupt > 0 {
		log.Fatalf("smoothplay: %d slices failed payload verification", stats.Corrupt)
	}
}
