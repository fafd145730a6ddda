package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func sampleFacts() []Fact {
	return []Fact{
		{
			Kind:   KindNode,
			Node:   "alpha",
			Gossip: "127.0.0.1:9999",
			Load:   3,
			Stamp:  42,
			TTL:    5 * time.Second,
		},
		{
			Kind:    KindExchange,
			Node:    "alpha",
			Gossip:  "127.0.0.1:9999",
			Hash:    "deadbeef",
			Stamp:   41,
			TTL:     10 * time.Second,
			Payload: []byte(`{"mapping":"tgd sigma: ..."}`),
		},
	}
}

// oversizedCountPacket is a 4-byte unsigned datagram whose count header
// claims MaxDatagram facts and which carries none of them.
func oversizedCountPacket() []byte {
	return binary.AppendUvarint([]byte{wireVersion}, MaxDatagram)
}

func TestCodecRoundTrip(t *testing.T) {
	for _, secret := range []string{"", "cluster-secret"} {
		facts := sampleFacts()
		packets, skipped := EncodePackets(facts, secret)
		if len(skipped) != 0 {
			t.Fatalf("secret=%q: skipped %d facts", secret, len(skipped))
		}
		if len(packets) != 1 {
			t.Fatalf("secret=%q: %d packets, want 1", secret, len(packets))
		}
		got, err := DecodePacket(packets[0], secret)
		if err != nil {
			t.Fatalf("secret=%q: decode: %v", secret, err)
		}
		if !reflect.DeepEqual(got, facts) {
			t.Fatalf("secret=%q: got %+v want %+v", secret, got, facts)
		}
	}
}

func TestCodecSignature(t *testing.T) {
	packets, _ := EncodePackets(sampleFacts(), "right")
	if _, err := DecodePacket(packets[0], "wrong"); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong secret: err %v, want ErrBadSignature", err)
	}
	// Flipping any byte must invalidate the packet.
	mangled := append([]byte(nil), packets[0]...)
	mangled[len(mangled)/2] ^= 0x40
	if _, err := DecodePacket(mangled, "right"); err == nil {
		t.Fatal("mangled signed packet decoded")
	}
	// A signing fleet must reject unsigned packets.
	unsigned, _ := EncodePackets(sampleFacts(), "")
	if _, err := DecodePacket(unsigned[0], "right"); err == nil {
		t.Fatal("unsigned packet accepted by a signing decoder")
	}
}

func TestCodecMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99}, // unknown version
		{wireVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // absurd count
		{wireVersion, 1},    // truncated fact
		{wireVersion, 1, 7}, // unknown kind, no body
	}
	packets, _ := EncodePackets(sampleFacts(), "")
	cases = append(cases, packets[0][:len(packets[0])-1])                // truncated tail
	cases = append(cases, append(append([]byte(nil), packets[0]...), 0)) // trailing byte
	for i, c := range cases {
		if _, err := DecodePacket(c, ""); err == nil {
			t.Errorf("case %d: malformed packet decoded", i)
		}
	}
	// A packet from a version-1 node is refused by its version byte.
	v1 := append([]byte(nil), packets[0]...)
	v1[0] = 1
	if _, err := DecodePacket(v1, ""); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version-1 packet: err %v, want ErrBadVersion", err)
	}
}

// TestCodecOversizedCount: the count header is untrusted, so a packet
// claiming far more facts than its bytes can hold must be rejected
// without allocating for the claim.
func TestCodecOversizedCount(t *testing.T) {
	pkt := oversizedCountPacket()
	if len(pkt) != 4 {
		t.Fatalf("packet is %d bytes, want 4", len(pkt))
	}
	if _, err := DecodePacket(pkt, ""); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("err %v, want ErrBadPacket", err)
	}
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = DecodePacket(pkt, "")
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1<<10 {
		t.Fatalf("decoding the oversized-count packet allocates %d bytes, want < 1 KiB", perOp)
	}
}

func TestCodecSplitsLargeSets(t *testing.T) {
	var facts []Fact
	payload := bytes.Repeat([]byte{'x'}, 8<<10)
	for i := 0; i < 32; i++ {
		f := sampleFacts()[1]
		f.Hash = string(rune('a' + i))
		f.Payload = payload
		facts = append(facts, f)
	}
	packets, skipped := EncodePackets(facts, "s")
	if len(skipped) != 0 {
		t.Fatalf("skipped %d", len(skipped))
	}
	if len(packets) < 2 {
		t.Fatalf("32 8KiB facts fit one datagram (%d packets)", len(packets))
	}
	total := 0
	for _, p := range packets {
		if len(p) > MaxDatagram {
			t.Fatalf("packet of %d bytes exceeds MaxDatagram", len(p))
		}
		got, err := DecodePacket(p, "s")
		if err != nil {
			t.Fatal(err)
		}
		total += len(got)
	}
	if total != len(facts) {
		t.Fatalf("round-tripped %d facts, want %d", total, len(facts))
	}
	// One fact beyond the datagram bound is skipped, not dropped quietly.
	huge := sampleFacts()[1]
	huge.Payload = bytes.Repeat([]byte{'y'}, MaxDatagram)
	packets, skipped = EncodePackets([]Fact{huge, sampleFacts()[0]}, "")
	if len(skipped) != 1 || skipped[0].Hash != huge.Hash {
		t.Fatalf("oversized fact not reported skipped: %d", len(skipped))
	}
	if len(packets) != 1 {
		t.Fatalf("remaining fact not packed: %d packets", len(packets))
	}
}

// FuzzDecodePacket feeds arbitrary datagrams to the decoder, signed and
// unsigned: decoding never panics, and every packet it accepts
// re-encodes through EncodePackets to facts that decode equal.
func FuzzDecodePacket(f *testing.F) {
	const secret = "fuzz-secret"
	for _, s := range []string{"", secret} {
		packets, _ := EncodePackets(sampleFacts(), s)
		f.Add(packets[0])
	}
	f.Add(oversizedCountPacket())
	unsigned, _ := EncodePackets(sampleFacts(), "")
	f.Add(unsigned[0][:len(unsigned[0])/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []string{"", secret} {
			facts, err := DecodePacket(data, s)
			// EncodePackets reserves room for a worst-case count header,
			// so a fact filling a datagram at the bound would not fit one
			// alone; below it every accepted fact must re-encode.
			if err != nil || len(data) > MaxDatagram-binary.MaxVarintLen64 {
				continue
			}
			packets, skipped := EncodePackets(facts, s)
			if len(skipped) != 0 {
				t.Fatalf("secret=%q: %d decoded facts do not re-encode", s, len(skipped))
			}
			var again []Fact
			for _, p := range packets {
				got, err := DecodePacket(p, s)
				if err != nil {
					t.Fatalf("secret=%q: re-encoded packet does not decode: %v", s, err)
				}
				again = append(again, got...)
			}
			if len(again) != len(facts) {
				t.Fatalf("secret=%q: %d facts decode as %d after re-encoding", s, len(facts), len(again))
			}
			for i := range facts {
				if !reflect.DeepEqual(again[i], facts[i]) {
					t.Fatalf("secret=%q: fact %d: %+v re-decodes as %+v", s, i, facts[i], again[i])
				}
			}
		}
	})
}
