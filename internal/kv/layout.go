package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
)

// Remote record layout. A record is the unit the store writes to and
// reads from disaggregated memory: one contiguous span holding the key
// (so a reader can detect a misdirected block) and the value, framed by
// a fixed header whose checksum covers everything after it. The
// checksum is what turns "a replica died mid-writeback" or "the heap
// handed two writers the same block" into a detectable ErrCorrupt
// instead of silently wrong bytes.
//
//	offset 0  magic   uint16  recordMagic
//	       2  keyLen  uint16
//	       4  valLen  uint32
//	       8  seq     uint64  writer-assigned sequence number
//	      16  crc     uint32  IEEE CRC-32 over seq ‖ key ‖ value
//	      20  key     keyLen bytes
//	          value   valLen bytes
const (
	recordMagic  = 0x4B56 // "KV"
	headerSize   = 20
	maxKeyLen    = 250         // memcached's limit
	maxValueLen  = 1024 * 1024 // 1MB, memcached's classic default
	maxRecordLen = headerSize + maxKeyLen + maxValueLen
)

var (
	// ErrCorrupt reports a record that failed its integrity checks: torn
	// write, misdirected block, or remote corruption.
	ErrCorrupt = errors.New("kv: corrupt record")
	// ErrTooLarge reports a key or value over the protocol limits.
	ErrTooLarge = errors.New("kv: key or value too large")
)

// recordSize returns the encoded size of a record.
func recordSize(keyLen, valLen int) int { return headerSize + keyLen + valLen }

// encodeRecord writes the record for (key, value, seq) into buf, which
// must hold recordSize(len(key), len(value)) bytes. It returns the
// encoded length.
func encodeRecord[K keyBytes](buf []byte, key K, value []byte, seq uint64) int {
	n := recordSize(len(key), len(value))
	_ = buf[n-1]
	binary.LittleEndian.PutUint16(buf[0:], recordMagic)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(value)))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], value)
	binary.LittleEndian.PutUint32(buf[16:], recordCRC(buf, len(key)+len(value)))
	return n
}

// recordCRC is the IEEE CRC-32 over a record's seq field and the body
// bytes (key ‖ value) that follow its header.
func recordCRC(buf []byte, body int) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, buf[8:16])
	return crc32.Update(crc, crc32.IEEETable, buf[headerSize:headerSize+body])
}

// decodeRecord validates buf as the record for key and returns the value
// bytes (aliasing buf) and the writer's sequence number. Any mismatch —
// magic, lengths, key bytes, checksum — is ErrCorrupt.
func decodeRecord[K keyBytes](buf []byte, key K) (value []byte, seq uint64, err error) {
	if len(buf) < headerSize {
		return nil, 0, fmt.Errorf("%w: %d-byte record", ErrCorrupt, len(buf))
	}
	if m := binary.LittleEndian.Uint16(buf[0:]); m != recordMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	keyLen := int(binary.LittleEndian.Uint16(buf[2:]))
	valLen := int(binary.LittleEndian.Uint32(buf[4:]))
	if keyLen != len(key) || recordSize(keyLen, valLen) > len(buf) {
		return nil, 0, fmt.Errorf("%w: lengths key=%d val=%d in %d bytes", ErrCorrupt, keyLen, valLen, len(buf))
	}
	if string(buf[headerSize:headerSize+keyLen]) != string(key) {
		return nil, 0, fmt.Errorf("%w: record holds a different key", ErrCorrupt)
	}
	seq = binary.LittleEndian.Uint64(buf[8:])
	if got, want := recordCRC(buf, keyLen+valLen), binary.LittleEndian.Uint32(buf[16:]); got != want {
		return nil, 0, fmt.Errorf("%w: checksum %#x, want %#x", ErrCorrupt, got, want)
	}
	return buf[headerSize+keyLen : headerSize+keyLen+valLen], seq, nil
}

// keySeed is the process-wide seed for key hashing. maphash gives a
// strong, fast string hash; a per-process random seed keeps the shard
// mapping unpredictable to adversarial key sets while staying stable
// for the life of the store.
var keySeed = maphash.MakeSeed()

// hashKey returns the 64-bit routing hash of key; hashKeyBytes is the
// same hash of the same bytes.
func hashKey(key string) uint64 { return maphash.String(keySeed, key) }

func hashKeyBytes(key []byte) uint64 { return maphash.Bytes(keySeed, key) }
