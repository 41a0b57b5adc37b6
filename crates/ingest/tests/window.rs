//! A capture read through the fixed window ingests exactly as the same
//! bytes held whole: same events, and an `IngestReport` that is `==` to
//! the slice's, samples included — whatever sizes the reads come in. A
//! read that fails is an error, never an early end.

mod common;

use std::cell::Cell;
use std::io::{self, Read};
use std::rc::Rc;

use dnsnoise_dns::{QType, RData, Record, Timestamp, Ttl};
use dnsnoise_ingest::{
    corrupt, pcap, CaptureFormat, EventStream, IngestConfig, IngestError, IngestReport, WINDOW_LEN,
};
use dnsnoise_workload::{DayTrace, Outcome, QueryEvent};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::Ipv4Addr;

const FORMATS: [CaptureFormat; 2] = [CaptureFormat::Pcap, CaptureFormat::Dnstap];

/// A reader over `bytes` whose reads return a seeded random 1 to `max`
/// bytes, and now and then `Interrupted` instead.
struct ShortReads<'a> {
    bytes: &'a [u8],
    rng: StdRng,
    max: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rng.gen_bool(1.0 / 16.0) {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = self.rng.gen_range(1..=self.max).min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A reader whose reads return the next length of `sizes` (the last one
/// repeating), counting the reads made.
struct SizedReads<'a> {
    bytes: &'a [u8],
    sizes: Vec<usize>,
    reads: Rc<Cell<usize>>,
}

impl Read for SizedReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let next = self.reads.get();
        self.reads.set(next + 1);
        let size = self.sizes[next.min(self.sizes.len() - 1)];
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A reader that yields `bytes` and then fails.
struct FailsAfter<'a> {
    bytes: &'a [u8],
}

impl Read for FailsAfter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.bytes.is_empty() {
            return Err(io::Error::other("device went away"));
        }
        let n = buf.len().min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

type Ingested = Result<(Vec<QueryEvent>, IngestReport), IngestError>;

fn drain(stream: Result<EventStream<'_>, IngestError>) -> Ingested {
    let mut stream = stream?;
    let events: Vec<QueryEvent> = stream.by_ref().collect();
    Ok((events, stream.finish()?))
}

/// Asserts that reading `capture` through `reader` ingests exactly as the
/// whole slice does: equal events and an equal ledger, or the same error.
fn assert_same_as_whole(capture: &[u8], reader: impl Read, config: &IngestConfig, what: &str) {
    let whole = drain(EventStream::new(capture, config));
    let windowed = drain(EventStream::from_reader(reader, config));
    match (&whole, &windowed) {
        (Ok((events, report)), Ok((w_events, w_report))) => {
            assert_eq!(w_report, report, "{what}: ledgers differ");
            assert_eq!(w_events, events, "{what}: events differ");
            assert_eq!(report.bytes_total, capture.len() as u64, "{what}");
        }
        _ => assert_eq!(format!("{windowed:?}"), format!("{whole:?}"), "{what}: outcomes differ"),
    }
}

fn short_reads(capture: &[u8], seed: u64, max: usize) -> ShortReads<'_> {
    ShortReads { bytes: capture, rng: StdRng::seed_from_u64(seed), max }
}

/// A trace whose frames all have one length in either capture format.
fn uniform_trace(n: u64) -> DayTrace {
    let name: dnsnoise_dns::Name = "host.example.com".parse().unwrap();
    let event = |i: u64| QueryEvent {
        time: Timestamp::from_secs(1_000 + i),
        client: 1 + i % 7,
        name: name.clone(),
        qtype: QType::A,
        outcome: Outcome::Answer(vec![Record::new(
            name.clone(),
            QType::A,
            Ttl::from_secs(300),
            RData::A(Ipv4Addr::new(203, 0, 113, 7)),
        )]),
        zone_tag: u32::MAX,
    };
    DayTrace { day: 0, events: (0..n).map(event).collect() }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Seeded clean, burst-damaged and chopped captures of either
        /// format, forced or detected, read in random short reads.
        #[test]
        fn short_reads_ingest_what_the_whole_slice_does(
            seed in any::<u64>(),
            n in 1u64..300,
            pick in 0u8..4,
            damage in 0.0f64..0.05,
            chop in 0.0f64..0.2,
            max_read in 1usize..4096,
        ) {
            let format = FORMATS[usize::from(pick % 2)];
            let mut capture = common::capture(&common::trace(n), format);
            if seed % 3 != 0 {
                corrupt::flip_bursts(&mut capture, damage, seed);
            }
            if seed % 5 == 0 {
                corrupt::truncate_tail(&mut capture, chop);
            }
            let config = IngestConfig {
                format: (pick >= 2).then_some(format),
                max_error_rate: 1.0,
                ..Default::default()
            };
            let what = format!("seed={seed} n={n} pick={pick} max_read={max_read}");
            assert_same_as_whole(&capture, short_reads(&capture, seed, max_read), &config, &what);
        }
    }
}

#[test]
fn a_truncated_tail_ingests_as_it_does_whole() {
    for format in FORMATS {
        let clean = common::capture(&common::trace(200), format);
        for (i, fraction) in [0.001, 0.013, 0.3, 0.97].into_iter().enumerate() {
            let mut capture = clean.clone();
            corrupt::truncate_tail(&mut capture, fraction);
            for max_read in [1, 5, 3000] {
                let config = IngestConfig::default();
                let what = format!("{format} chopped {fraction} max_read={max_read}");
                let reader = short_reads(&capture, i as u64, max_read);
                assert_same_as_whole(&capture, reader, &config, &what);
            }
        }
    }
}

#[test]
fn a_mangled_pcap_global_header_ingests_as_it_does_whole() {
    let mut capture = common::capture(&common::trace(150), CaptureFormat::Pcap);
    capture[..pcap::GLOBAL_HEADER_LEN].fill(0xab);
    let config = IngestConfig { format: Some(CaptureFormat::Pcap), ..Default::default() };
    for max_read in [1, 23, 24, 700] {
        let reader = short_reads(&capture, 5, max_read);
        assert_same_as_whole(&capture, reader, &config, &format!("max_read={max_read}"));
    }
    let (_, report) = drain(EventStream::new(&capture, &config)).unwrap();
    assert_eq!(report.resync_samples[0].offset, 0, "{report}");
}

#[test]
fn a_garbage_run_longer_than_the_window_is_one_resync() {
    for format in FORMATS {
        let mut capture = common::capture(&common::trace(100), format);
        let (garbage_at, _) = common::frame_extents(&capture, format)[50];
        let garbage = WINDOW_LEN + WINDOW_LEN / 3;
        capture.splice(garbage_at..garbage_at, std::iter::repeat_n(0xff, garbage));
        let config = IngestConfig { max_error_rate: 1.0, ..Default::default() };
        let (events, whole) = drain(EventStream::new(&capture, &config)).unwrap();
        assert_eq!((events.len(), whole.resyncs), (100, 1), "{format}: {whole}");
        assert_eq!(whole.bytes_skipped, garbage as u64, "{format}: {whole}");

        for max_read in [64, 4096, WINDOW_LEN] {
            let what = format!("{format} max_read={max_read}");
            let reader = short_reads(&capture, 9, max_read);
            assert_same_as_whole(&capture, reader, &config, &what);
        }
    }
}

#[test]
fn a_frame_straddles_every_refill_point() {
    let n = 400;
    for format in FORMATS {
        let capture = common::capture(&uniform_trace(n), format);
        // Both formats open and close with 24 bytes of framing: the pcap
        // global header, or dnstap's START and STOP control frames.
        let stride = (capture.len() - 24) / n as usize;
        assert_eq!(24 + n as usize * stride, capture.len(), "{format}");
        let head = match format {
            CaptureFormat::Pcap => pcap::GLOBAL_HEADER_LEN,
            CaptureFormat::Dnstap => 12,
        };
        // Every read after the first ends halfway through a frame, and a
        // window refills by one read, so each frame spans two reads.
        let reads = Rc::new(Cell::new(0));
        let reader = SizedReads {
            bytes: &capture,
            sizes: vec![head + stride / 2, stride],
            reads: Rc::clone(&reads),
        };
        assert_same_as_whole(&capture, reader, &IngestConfig::default(), &format.to_string());
        assert!(reads.get() > n as usize, "{format}: {} reads", reads.get());
    }
}

#[test]
fn a_failing_read_is_an_error_not_an_early_end() {
    for format in FORMATS {
        let capture = common::capture(&common::trace(3000), format);
        for cut in [0, 10, capture.len() / 3, capture.len() - 1] {
            let what = format!("{format} cut={cut}");
            let reader = FailsAfter { bytes: &capture[..cut] };
            let outcome = drain(EventStream::from_reader(reader, &IngestConfig::default()));
            match outcome {
                Err(IngestError::Read { after, error }) => {
                    assert_eq!(after, cut as u64, "{what}");
                    assert_eq!(error.to_string(), "device went away", "{what}");
                }
                other => panic!("{what}: expected a read error, got {other:?}"),
            }
        }
        // A stream pulled dry past the failure still ends in the error.
        let cut = capture.len() / 2;
        let mut stream =
            EventStream::from_reader(FailsAfter { bytes: &capture[..cut] }, &Default::default())
                .unwrap();
        let pulled = stream.by_ref().count();
        assert!(pulled > 0 && stream.next().is_none(), "{format}: {pulled}");
        let err = stream.finish().unwrap_err();
        assert!(err.to_string().starts_with(&format!("read failed after {cut} bytes")), "{err}");
    }
}
