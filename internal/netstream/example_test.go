package netstream_test

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/drop"
	"repro/internal/netstream"
	"repro/internal/stream"
)

// Example pushes three slices through a Sender over an in-memory wire
// and plays them back with Receive, demonstrating the step-driven session
// API.
func Example() {
	var wire bytes.Buffer
	snd, _ := netstream.NewSender(&wire, netstream.SenderConfig{
		ServerBuffer: 4,
		Rate:         2,
		Policy:       drop.Greedy,
	})
	fmt.Printf("negotiated delay D = %d\n", snd.Delay())
	// The server's side of the handshake: Receive reads it first.
	_ = netstream.WriteAccept(&wire, netstream.Accept{Rate: 2, Delay: uint32(snd.Delay()), ServerBuffer: 4})

	payload := func(sl stream.Slice) []byte { return netstream.SynthPayload(sl.ID, sl.Size) }
	st := stream.NewBuilder().
		Add(0, 2, 2).
		Add(0, 2, 2).
		Add(1, 2, 2).
		MustBuild()
	for step := 0; step <= st.Horizon(); step++ {
		if _, err := snd.Tick(netstream.OfferStream(st, step, payload)); err != nil {
			fmt.Println(err)
			return
		}
	}
	if _, err := snd.Drain(); err != nil {
		fmt.Println(err)
		return
	}

	// The client's Hello goes nowhere; the session is read back from wire.
	conn := struct {
		io.Reader
		io.Writer
	}{&wire, io.Discard}
	stats, err := netstream.Receive(conn, 0, snd.Delay(), 1, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("played %d of %d slices, %d late bytes\n", stats.Played, st.Len(), stats.LateBytes)
	// Output:
	// negotiated delay D = 2
	// played 3 of 3 slices, 0 late bytes
}
