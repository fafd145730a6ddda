// Package fleet lets tdxd nodes share their registries. It is built in
// the wirelink shape: each node periodically gossips small, optionally
// signed, TTL'd *facts* over UDP — "node N gossips at G under load L",
// "node N holds the compiled exchange with fingerprint H, and here is
// the manifest row that reproduces it" — and accumulates the facts it
// hears, expiring what goes stale. Every node thereby converges on the
// fleet's registry contents without any coordinator, consensus round,
// or external dependency.
//
// That shared knowledge is all a node needs to answer for the whole
// fleet. An exchange is named by its fingerprint
// (tdx.Exchange.Fingerprint, the content hash of its canonical
// mapping), and the c-chase result depends only on the mapping and the
// source, so the serving tier (internal/server) answers a fingerprint
// it does not hold by compiling the gossiped manifest row locally: the
// same bytes as the node that registered it, also after that node has
// died.
//
// The package is transport-complete but policy-free: it moves and
// expires knowledge and answers membership and manifest lookups; what
// to do with them is the server's business.
package fleet

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Kind discriminates what a fact asserts.
type Kind uint8

const (
	// KindNode asserts liveness: the origin node exists, gossips at
	// Gossip, and reports Load in-flight chases.
	KindNode Kind = iota + 1
	// KindExchange asserts possession: the origin node holds the
	// compiled exchange with fingerprint Hash; Payload carries the
	// node's warm-start manifest row for it (canonical mapping text +
	// compile options), so a receiver can reproduce the exchange.
	KindExchange
)

func (k Kind) String() string {
	switch k {
	case KindNode:
		return "node"
	case KindExchange:
		return "exchange"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fact is one unit of gossiped knowledge. Facts are self-describing and
// idempotent: a receiver keeps, per Key, the fact with the newest Stamp,
// and forgets it when TTL lapses without a refresh — so a dead node's
// knowledge evaporates on its own.
type Fact struct {
	Kind Kind
	// Node is the originating node's ID. Knowledge is per-origin: two
	// nodes holding the same exchange gossip two distinct facts.
	Node string
	// Gossip is the origin's UDP gossip address — where packets go.
	Gossip string
	// Hash is the exchange fingerprint (KindExchange only).
	Hash string
	// Load is the origin's in-flight chase count (KindNode only), as
	// /healthz reports it for each member.
	Load int64
	// Stamp is the origin's assertion time, unix nanoseconds, re-minted
	// by the origin every gossip round. Newer stamps win, and only a
	// strictly newer stamp refreshes a receiver's TTL — peers echoing a
	// held stamp back and forth cannot keep a dead origin's facts alive.
	Stamp int64
	// TTL is how long a receiver may trust this fact without a refresh.
	TTL time.Duration
	// Payload is kind-specific opaque data (KindExchange: the manifest
	// row JSON).
	Payload []byte
}

// Key identifies the knowledge slot a fact occupies: later facts with
// the same key supersede earlier ones.
func (f Fact) Key() string {
	return fmt.Sprintf("%d\x00%s\x00%s", f.Kind, f.Node, f.Hash)
}

// Wire format: one datagram is
//
//	byte    version (wireVersion)
//	uvarint fact count
//	facts   each: kind byte, then node, gossip, hash, payload as
//	        uvarint-length-prefixed bytes, then load (varint), stamp
//	        (varint), ttl nanoseconds (varint)
//	[32]byte HMAC-SHA256 over everything before it (signed packets only)
//
// Signing is symmetric-key: every node of one fleet shares a secret,
// and a packet that fails verification is dropped whole. An empty
// secret means unsigned packets (loopback test fleets); a signing fleet
// rejects unsigned packets and vice versa, so mixed configurations fail
// loudly instead of half-merging.

const wireVersion = 2

// minFactLen is the fewest bytes one encoded fact can take: the kind
// byte, four empty length-prefixed strings and three one-byte varints.
// It bounds how many facts a packet can really hold, whatever its count
// header claims.
const minFactLen = 8

// MaxDatagram bounds one gossip packet. 60 KiB stays under the 64 KiB
// UDP payload ceiling with headroom for the signature; EncodePackets
// splits larger fact sets across datagrams.
const MaxDatagram = 60 << 10

const sigLen = sha256.Size

// Codec errors, matched with errors.Is by transport counters and tests.
var (
	ErrBadPacket    = errors.New("fleet: malformed packet")
	ErrBadVersion   = errors.New("fleet: unknown wire version")
	ErrBadSignature = errors.New("fleet: packet signature mismatch")
	ErrFactTooLarge = errors.New("fleet: fact exceeds the datagram bound")
)

// appendString appends one uvarint-length-prefixed byte string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendFact appends one fact's wire form.
func appendFact(b []byte, f Fact) []byte {
	b = append(b, byte(f.Kind))
	b = appendString(b, f.Node)
	b = appendString(b, f.Gossip)
	b = appendString(b, f.Hash)
	b = binary.AppendUvarint(b, uint64(len(f.Payload)))
	b = append(b, f.Payload...)
	b = binary.AppendVarint(b, f.Load)
	b = binary.AppendVarint(b, f.Stamp)
	b = binary.AppendVarint(b, int64(f.TTL))
	return b
}

// sign appends the packet HMAC when secret is non-empty.
func sign(b []byte, secret string) []byte {
	if secret == "" {
		return b
	}
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write(b)
	return mac.Sum(b)
}

// EncodePackets renders facts into one or more datagrams, each at most
// MaxDatagram bytes after signing. Facts too large to fit a datagram
// alone are skipped and reported (never silently dropped); everything
// else is packed first-fit in order.
func EncodePackets(facts []Fact, secret string) (packets [][]byte, skipped []Fact) {
	overhead := 0
	if secret != "" {
		overhead = sigLen
	}
	newPacket := func() []byte {
		b := make([]byte, 0, 4<<10)
		b = append(b, wireVersion)
		return b
	}
	var curFacts [][]byte
	flush := func() {
		if len(curFacts) == 0 {
			return
		}
		b := newPacket()
		b = binary.AppendUvarint(b, uint64(len(curFacts)))
		for _, fb := range curFacts {
			b = append(b, fb...)
		}
		packets = append(packets, sign(b, secret))
		curFacts = nil
	}
	size := 1 + binary.MaxVarintLen64 + overhead // version + worst-case count
	for _, f := range facts {
		fb := appendFact(nil, f)
		if 1+binary.MaxVarintLen64+overhead+len(fb) > MaxDatagram {
			skipped = append(skipped, f)
			continue
		}
		if size+len(fb) > MaxDatagram {
			flush()
			size = 1 + binary.MaxVarintLen64 + overhead
		}
		curFacts = append(curFacts, fb)
		size += len(fb)
	}
	flush()
	return packets, skipped
}

// reader walks one packet without copying.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrBadPacket
	}
	r.pos += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrBadPacket
	}
	r.pos += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, ErrBadPacket
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

func (r *reader) string() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

// DecodePacket parses and verifies one datagram. With a non-empty
// secret the trailing HMAC must verify; without one the packet must be
// unsigned-shaped (no requirement — any bytes decode or fail
// structurally). Decoded payloads are copied, so the caller may reuse
// the datagram buffer.
func DecodePacket(b []byte, secret string) ([]Fact, error) {
	if secret != "" {
		if len(b) < sigLen+1 {
			return nil, ErrBadPacket
		}
		body, sig := b[:len(b)-sigLen], b[len(b)-sigLen:]
		mac := hmac.New(sha256.New, []byte(secret))
		mac.Write(body)
		if !hmac.Equal(sig, mac.Sum(nil)) {
			return nil, ErrBadSignature
		}
		b = body
	}
	if len(b) < 1 {
		return nil, ErrBadPacket
	}
	if b[0] != wireVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, b[0])
	}
	r := &reader{b: b, pos: 1}
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// The count header is the sender's claim; the bytes present bound
	// what the packet can really hold, so size the slice by those. A
	// count they cannot cover fails in the loop below.
	facts := make([]Fact, 0, min(count, uint64((len(r.b)-r.pos)/minFactLen)))
	for i := uint64(0); i < count; i++ {
		if r.pos >= len(r.b) {
			return nil, ErrBadPacket
		}
		var f Fact
		f.Kind = Kind(r.b[r.pos])
		r.pos++
		if f.Node, err = r.string(); err != nil {
			return nil, err
		}
		if f.Gossip, err = r.string(); err != nil {
			return nil, err
		}
		if f.Hash, err = r.string(); err != nil {
			return nil, err
		}
		payload, err := r.bytes()
		if err != nil {
			return nil, err
		}
		if len(payload) > 0 {
			f.Payload = append([]byte(nil), payload...)
		}
		if f.Load, err = r.varint(); err != nil {
			return nil, err
		}
		if f.Stamp, err = r.varint(); err != nil {
			return nil, err
		}
		ttl, err := r.varint()
		if err != nil {
			return nil, err
		}
		f.TTL = time.Duration(ttl)
		if f.Kind != KindNode && f.Kind != KindExchange {
			return nil, fmt.Errorf("%w: kind %d", ErrBadPacket, f.Kind)
		}
		if f.Node == "" || f.TTL <= 0 {
			return nil, fmt.Errorf("%w: fact without origin or ttl", ErrBadPacket)
		}
		facts = append(facts, f)
	}
	if r.pos != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPacket, len(r.b)-r.pos)
	}
	return facts, nil
}
