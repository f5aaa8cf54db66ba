//! A model run costs what its RPCs cost: none of the four engines may
//! sit out the rest of a 200 ms lease-renewal interval when it stops
//! its `LeaseRenewer`. Each run below is a few milliseconds of work; at
//! the `AtomicBool` + `thread::sleep` renewer every one of them took
//! 200 ms or more.

use std::time::{Duration, Instant};

use jiffy::cluster::JiffyCluster;
use jiffy::JiffyConfig;
use jiffy_client::JobClient;
use jiffy_models::piccolo::{run_kernels, SumF64};
use jiffy_models::{
    ChannelKind, Dataflow, MapReduceJob, Mapper, PiccoloTable, Reducer, StreamPipeline, StreamStage,
};

/// Under the renewal interval with room to spare for a loaded host.
const LIMIT: Duration = Duration::from_millis(150);

/// Runs `run` on three fresh jobs and asserts on the fastest: one slow
/// run is the host, three are the engine.
fn assert_best_of_three_is_prompt(what: &str, run: impl Fn(&JobClient)) {
    let cluster = JiffyCluster::in_process(JiffyConfig::for_testing(), 2, 64).unwrap();
    let client = cluster.client().unwrap();
    let best = (0..3)
        .map(|i| {
            let job = client.register_job(&format!("{what}-{i}")).unwrap();
            let begun = Instant::now();
            run(&job);
            begun.elapsed()
        })
        .min()
        .unwrap();
    assert!(best < LIMIT, "{what}: fastest of three runs took {best:?}");
}

struct Tokenize;

impl Mapper for Tokenize {
    fn map(&self, _key: &[u8], value: &[u8], emit: &mut dyn FnMut(Vec<u8>, Vec<u8>)) {
        for word in value.split(u8::is_ascii_whitespace) {
            emit(word.to_vec(), b"1".to_vec());
        }
    }
}

struct Count;

impl Reducer for Count {
    fn reduce(&self, _key: &[u8], values: &[Vec<u8>]) -> Vec<u8> {
        values.len().to_string().into_bytes()
    }
}

#[test]
fn mapreduce_run_does_not_sleep() {
    assert_best_of_three_is_prompt("mapreduce", |job| {
        let inputs = vec![
            vec![(b"0".to_vec(), b"a b a".to_vec())],
            vec![(b"1".to_vec(), b"b a".to_vec())],
        ];
        let out = MapReduceJob::new(Tokenize, Count, 2)
            .run(job, inputs)
            .unwrap();
        assert_eq!(out[b"a".as_slice()], b"3");
        assert_eq!(out[b"b".as_slice()], b"2");
    });
}

#[test]
fn dataflow_run_does_not_sleep() {
    assert_best_of_three_is_prompt("dataflow", |job| {
        let mut g = Dataflow::new();
        g.channel("numbers", ChannelKind::File)
            .channel("total", ChannelKind::File);
        g.vertex("source", &[], &["numbers"], |ctx| {
            for i in 0..4u64 {
                ctx.write(0, &i.to_le_bytes(), &i.to_le_bytes())?;
            }
            Ok(())
        });
        g.vertex("sum", &["numbers"], &["total"], |ctx| {
            let mut sum = 0u64;
            while let Some((_k, v)) = ctx.read(0)? {
                sum += u64::from_le_bytes(v.try_into().unwrap());
            }
            ctx.write(0, b"sum", &sum.to_le_bytes())
        });
        g.run(job).unwrap();
    });
}

#[test]
fn piccolo_run_does_not_sleep() {
    assert_best_of_three_is_prompt("piccolo", |job| {
        let table = PiccoloTable::create(job, "ranks", SumF64, 1).unwrap();
        let job2 = job.clone();
        // One key per kernel: updates are read-modify-write.
        run_kernels(job, vec!["ranks".to_string()], 2, move |k| {
            PiccoloTable::create(&job2, "ranks", SumF64, 1)?
                .update(format!("page-{k}").as_bytes(), &0.5f64.to_le_bytes())
        })
        .unwrap();
        for k in 0..2 {
            let rank = table.get(format!("page-{k}").as_bytes()).unwrap().unwrap();
            assert_eq!(f64::from_le_bytes(rank.try_into().unwrap()), 0.5);
        }
    });
}

#[test]
fn streaming_run_does_not_sleep() {
    assert_best_of_three_is_prompt("streaming", |job| {
        let pipeline = StreamPipeline::new().stage(StreamStage::new("upper", 1, |k, v, emit| {
            emit(k.to_vec(), v.to_ascii_uppercase());
        }));
        let (input, collector) = pipeline.launch(job).unwrap();
        input.send(b"k", b"jiffy").unwrap();
        input.close().unwrap();
        let out = collector.join().unwrap().unwrap();
        assert_eq!(out, vec![(b"k".to_vec(), b"JIFFY".to_vec())]);
    });
}
