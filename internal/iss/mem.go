// Package iss implements the instruction-set simulator for the reduced
// SPARC target — the stand-in for SPARCsim in the paper's framework. It
// executes real encoded programs instruction by instruction with a pipeline
// timing model (load-use interlocks, delayed-branch flushes, register-window
// spill traps) and a Tiwari-style instruction-level power model (per-class
// base energy plus inter-instruction circuit-state overhead).
//
// As in the paper, the ISS assumes 100% cache hits; instruction-cache
// behavior is modeled separately (internal/cachesim) from traces generated
// by the simulation master.
package iss

import "fmt"

const pageBits = 12
const pageSize = 1 << pageBits

// densePages is how many pages, from address 0, Mem indexes through a
// slice. It covers 0x0-0x400000: the whole layout of a synthesized image
// (text from 0x1000, data from 0x100000, the shared window from 0x200000,
// the stack below 0x300000) with room above the stack top. Pages beyond
// it live in a map.
const densePages = 0x400000 >> pageBits

// Mem is a sparse byte-addressable big-endian memory (SPARC is big-endian),
// allocated a 4 KiB page at a time as it is written.
type Mem struct {
	dense []*[pageSize]byte          // page i covers [i<<pageBits, (i+1)<<pageBits)
	high  map[uint32]*[pageSize]byte // pages at densePages and above
}

// NewMem returns an empty memory; all bytes read as zero.
func NewMem() *Mem {
	return &Mem{}
}

func (m *Mem) page(addr uint32, create bool) *[pageSize]byte {
	key := addr >> pageBits
	var p *[pageSize]byte
	if key < uint32(len(m.dense)) {
		p = m.dense[key]
	} else if key >= densePages {
		p = m.high[key]
	}
	if p == nil && create {
		p = new([pageSize]byte)
		m.setPage(key, p)
	}
	return p
}

func (m *Mem) setPage(key uint32, p *[pageSize]byte) {
	if key >= densePages {
		if m.high == nil {
			m.high = make(map[uint32]*[pageSize]byte)
		}
		m.high[key] = p
		return
	}
	for uint32(len(m.dense)) <= key {
		m.dense = append(m.dense, nil)
	}
	m.dense[key] = p
}

// CopyFrom makes m's contents equal to src's. It reuses m's pages: a page
// src also has is overwritten with src's bytes, any other is zeroed and
// kept, so a memory recycled from run to run stops allocating once it has
// every page its runs touch.
func (m *Mem) CopyFrom(src *Mem) {
	for key, p := range m.dense {
		if p != nil {
			copyPage(p, src.page(uint32(key)<<pageBits, false))
		}
	}
	for key, p := range m.high {
		copyPage(p, src.high[key])
	}
	for key, sp := range src.dense {
		if sp != nil && m.page(uint32(key)<<pageBits, false) == nil {
			np := *sp
			m.setPage(uint32(key), &np)
		}
	}
	for key, sp := range src.high {
		if m.high[key] == nil {
			np := *sp
			m.setPage(key, &np)
		}
	}
}

func copyPage(dst, src *[pageSize]byte) {
	if src == nil {
		*dst = [pageSize]byte{}
		return
	}
	*dst = *src
}

// Read8 returns the byte at addr.
func (m *Mem) Read8(addr uint32) uint8 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Write8 stores a byte at addr.
func (m *Mem) Write8(addr uint32, v uint8) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Read16 returns the big-endian halfword at addr (must be 2-aligned).
func (m *Mem) Read16(addr uint32) uint16 {
	return uint16(m.Read8(addr))<<8 | uint16(m.Read8(addr+1))
}

// Write16 stores a big-endian halfword at addr.
func (m *Mem) Write16(addr uint32, v uint16) {
	m.Write8(addr, uint8(v>>8))
	m.Write8(addr+1, uint8(v))
}

// Read32 returns the big-endian word at addr (must be 4-aligned).
func (m *Mem) Read32(addr uint32) uint32 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	o := addr & (pageSize - 1)
	if o+4 <= pageSize {
		return uint32(p[o])<<24 | uint32(p[o+1])<<16 | uint32(p[o+2])<<8 | uint32(p[o+3])
	}
	return uint32(m.Read8(addr))<<24 | uint32(m.Read8(addr+1))<<16 |
		uint32(m.Read8(addr+2))<<8 | uint32(m.Read8(addr+3))
}

// Write32 stores a big-endian word at addr.
func (m *Mem) Write32(addr uint32, v uint32) {
	p := m.page(addr, true)
	o := addr & (pageSize - 1)
	if o+4 <= pageSize {
		p[o], p[o+1], p[o+2], p[o+3] = uint8(v>>24), uint8(v>>16), uint8(v>>8), uint8(v)
		return
	}
	m.Write8(addr, uint8(v>>24))
	m.Write8(addr+1, uint8(v>>16))
	m.Write8(addr+2, uint8(v>>8))
	m.Write8(addr+3, uint8(v))
}

// WriteBytes copies a byte slice into memory at addr.
func (m *Mem) WriteBytes(addr uint32, b []byte) {
	for i, v := range b {
		m.Write8(addr+uint32(i), v)
	}
}

// ReadBytes copies n bytes starting at addr.
func (m *Mem) ReadBytes(addr uint32, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.Read8(addr + uint32(i))
	}
	return b
}

// String summarizes the populated footprint.
func (m *Mem) String() string {
	n := len(m.high)
	for _, p := range m.dense {
		if p != nil {
			n++
		}
	}
	return fmt.Sprintf("mem{%d pages, %d bytes touched}", n, n*pageSize)
}
