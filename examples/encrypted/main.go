// Encrypted network: WiTAG's headline advantage demonstrated.
//
// The client and AP speak WPA2 (CCMP) — every MPDU body is AES-CCM
// ciphertext with an 8-byte MIC. The tag neither holds keys nor parses
// frames; it corrupts subframes at the channel level, and the block ACK
// reports the damage exactly as on an open network. For contrast, the
// HitchHike-class baseline refuses the same network: translating
// ciphertext symbols breaks decryption, which is why prior systems require
// open networks and modified APs (§2).
//
// Run: go run ./examples/encrypted
package main

import (
	"context"
	"fmt"
	"log"

	"witag/internal/baselines"
	"witag/internal/channel"
	"witag/internal/core"
	"witag/internal/crypto80211"
	"witag/internal/experiments"
	"witag/internal/sim"
	"witag/internal/stats"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== WiTAG on a WPA2 (CCMP) network ===")

	env := channel.NewEnvironment(21)
	env.AddReflector(channel.Point{X: 4, Y: 3.5}, 60)
	env.AddReflector(channel.Point{X: 4, Y: -3.5}, 60)
	env.AddScatterers(3, 0, -3, 8, 3, 15, 1.0)
	sys, err := core.NewSystem(env,
		channel.Point{X: 0, Y: 0}, channel.Point{X: 8, Y: 0},
		channel.Point{X: 1.5, Y: 0.3}, experiments.TagGain, 21)
	if err != nil {
		return err
	}

	// Pairwise temporal key from the WPA2 handshake — known to client and
	// AP, *not* to the tag.
	tk := []byte("witag-pairwise-k")
	cipher, err := crypto80211.NewCCMP(tk, [6]byte{2, 0, 0, 0, 0, 0x10}, 0)
	if err != nil {
		return err
	}
	if err := sys.SetCipher(cipher); err != nil {
		return err
	}
	fmt.Printf("cipher: %s (+%d bytes per MPDU → %d-tick subframes)\n",
		cipher.Name(), cipher.Overhead(), sys.Spec.TicksPerSubframe)

	// Stream a framed reading over the encrypted network.
	codec := core.Codec{FEC: true, InterleaveDepth: 12}
	reading := []byte("vault-humidity=41%")
	bits, err := codec.Encode(reading)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var st sim.Stream
	if err := st.Send(ctx, sys, env, bits); err != nil {
		return err
	}
	payload, corrected, err := codec.Decode(st.RxBits)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	fmt.Printf("tag reading recovered through WPA2: %q (%d bit(s) corrected)\n", payload, corrected)

	// Longer-run BER on the encrypted link.
	rs, err := sim.MeasureRun(ctx, sys, env, 400, 22)
	if err != nil {
		return err
	}
	rate, err := sys.TagRateBps()
	if err != nil {
		return err
	}
	fmt.Printf("encrypted-link BER over %d bits: %.4f, tag rate %.1f Kbps\n\n",
		rs.Bits, rs.BER, rate/1e3)

	// The baseline's fate on the same network.
	fmt.Println("=== HitchHike on the same network ===")
	hh, err := baselines.NewHitchHikeLink(2, 1, stats.NewRNG(5))
	if err != nil {
		return err
	}
	hh.EncryptionEnabled = true
	if _, err := hh.Transmit(make([]byte, 16), make([]byte, 8)); err != nil {
		fmt.Printf("HitchHike: %v\n", err)
	} else {
		return fmt.Errorf("HitchHike unexpectedly worked under encryption")
	}
	fmt.Println("\nWiTAG never touches plaintext: a corrupted ciphertext MPDU simply fails")
	fmt.Println("its FCS/MIC at the AP, clears a block-ACK bit, and the reader moves on.")
	return nil
}
