#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Block storage substrate for the ephemeral log.
//!
//! §2.2 of the paper: "Information is written to disk in fixed sized blocks
//! (with each block typically some multiple of 1024 bytes). Sequential disk
//! I/O is faster than random disk I/O." This crate provides the pieces of
//! that storage model:
//!
//! * [`block`] — the typed in-memory image of one 2048-byte log block
//!   (48 bytes of bookkeeping + 2000 bytes of record payload);
//! * [`checksum`] — a CRC-32 (IEEE) for block integrity, written in-tree
//!   to keep the dependency set minimal: a carry-less-multiply kernel on
//!   x86_64 CPUs with PCLMULQDQ, slice-by-8 tables everywhere else;
//! * [`codec`] — a self-describing wire format for blocks and records, used
//!   by the recovery path that reads real bytes (see DESIGN.md §5 for how
//!   wire sizes relate to the paper's accounting sizes);
//! * [`ring`] — the circular array of disk blocks that backs one generation
//!   (§2.1: "the head and tail pointers rotate through the positions of the
//!   array so that records conceptually move from tail to head but
//!   physically they remain in the same place on disk");
//! * [`device`] — the simulated log device with a fixed per-buffer write
//!   latency (§3: τ_DiskWrite = 15 ms) and bandwidth accounting.

pub mod block;
pub mod checksum;
pub mod codec;
pub mod device;
pub mod ring;

pub use block::{Block, BlockAddr};
pub use checksum::crc32;
pub use codec::{
    decode_block, decode_block_into, encode_block, encode_surface, surface_bytes, CodecError,
};
pub use device::{DeviceStats, LogDevice};
pub use ring::BlockRing;
