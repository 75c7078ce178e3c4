// Sensor farm: the paper's motivating deployment — battery-free sensors
// scattered through a space, read through an existing WiFi network.
//
// Three tags share one client/AP pair. Each tag answers only queries whose
// trigger pattern matches its address (multi-tag TDM, §7's trigger design
// generalised), and each reading travels in a CRC-16 + SECDED(8,4) framed
// transfer — the error-correction layer the paper defers to future work —
// spread over as many query rounds as it needs.
//
// Run: go run ./examples/sensorfarm
package main

import (
	"context"
	"fmt"
	"log"

	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/experiments"
	"witag/internal/sim"
)

// sensor is one deployed tag with the reading it wants to report.
type sensor struct {
	address int
	pos     channel.Point
	reading string
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sensors := []sensor{
		{address: 0, pos: channel.Point{X: 1.5, Y: 0.4}, reading: "soil-moisture=31% row=3"},
		{address: 1, pos: channel.Point{X: 3.0, Y: -0.6}, reading: "temp=22.4C valve=open"},
		{address: 2, pos: channel.Point{X: 6.0, Y: 0.5}, reading: "battery-free uptime=188d"},
	}
	const patternLen = 4 // addresses 0..3

	codec := core.Codec{FEC: true, InterleaveDepth: 12}
	fmt.Println("=== WiTAG sensor farm: 3 tags, 1 unmodified AP ===")

	for _, s := range sensors {
		// Every tag compares the trigger envelope to its own pattern; a
		// mismatch and it stays silent. Distinct addresses never collide
		// (TriggerPattern sets a distinct subset of positions high), so
		// polling is interference-free.
		pattern, err := core.TriggerPattern(s.address, patternLen)
		if err != nil {
			return err
		}

		env := channel.NewEnvironment(int64(100 + s.address))
		env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
		env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
		env.AddScatterers(3, 0, -3, 8, 3, 15, 1.0)
		sys, err := core.NewSystem(env,
			channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
			s.pos, experiments.TagGain, int64(s.address)+9)
		if err != nil {
			return err
		}
		det, err := core.AddressedDetector(s.address, patternLen, 0.5)
		if err != nil {
			return err
		}
		sys.Tag.Detector = det

		// Encode the reading and stream it across query rounds.
		bits, err := codec.Encode([]byte(s.reading))
		if err != nil {
			return err
		}
		var st sim.Stream
		if err := st.Send(context.Background(), sys, env, bits); err != nil {
			return err
		}

		payload, corrected, err := codec.Decode(st.RxBits)
		status := "verified"
		if err != nil {
			status = fmt.Sprintf("FAILED (%v) — the reader would re-poll", err)
			payload = nil
		}
		fmt.Printf("tag %d  pattern=%v  %d bits over %d rounds\n", s.address, patternLevels(pattern), len(bits), st.Rounds)
		fmt.Printf("       reading: %q  [%s, %d bit(s) FEC-corrected]\n", payload, status, corrected)
	}

	fmt.Println("\nEvery exchange above was ordinary 802.11n traffic: query A-MPDUs in,")
	fmt.Println("block ACKs out. The AP needs no firmware change, driver, or key material.")
	return nil
}

func patternLevels(p []bool) string {
	out := make([]byte, len(p))
	for i, hi := range p {
		if hi {
			out[i] = 'H'
		} else {
			out[i] = 'L'
		}
	}
	return string(out)
}
