package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ppclust"
	"ppclust/internal/codec"
	"ppclust/internal/core"
	"ppclust/internal/datastore"
	"ppclust/internal/engine"
	"ppclust/internal/federation"
	"ppclust/internal/jobs"
	"ppclust/internal/keyring"
	"ppclust/internal/matrix"
	"ppclust/internal/obs"
	"ppclust/internal/service"
	"ppclust/internal/stats"
)

// streamBatchRows is the daemon's default -batch-rows: the batch size the
// stream kernel sees on the served path.
const streamBatchRows = 4096

// replayPST is the threshold the served fits use (the daemon default).
var replayPST = core.PST{Rho1: defaultRho, Rho2: defaultRho}

// repeat times fn until it has run at least 5 times and for at least
// minTotal, at most 1000 times, and returns the median duration.
func repeat(minTotal time.Duration, fn func(ctx context.Context) error) (time.Duration, error) {
	var ds []float64
	var total time.Duration
	for n := 0; n < 1000 && (n < 5 || total < minTotal); n++ {
		ctx, sp := obs.StartTrace(context.Background(), "", "replay")
		err := fn(ctx)
		sp.End()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(sp.Duration()))
		total += sp.Duration()
	}
	return time.Duration(median(ds)), nil
}

// allocBytes returns the median bytes fn allocates per call.
func allocBytes(fn func() error) (float64, error) {
	var ms0, ms1 runtime.MemStats
	var vals []float64
	for range 5 {
		runtime.ReadMemStats(&ms0)
		if err := fn(); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms1)
		vals = append(vals, float64(ms1.TotalAlloc-ms0.TotalAlloc))
	}
	return median(vals), nil
}

// replay calls each layer's public functions in-process on the first
// owner's body, with nothing else running, and reports per-layer costs.
// Durations come from bench-side spans, so the engine's and service's own
// spans nest under them.
func replay(cfg *config, wl *workload, in []ownerInputs) (map[string]float64, error) {
	body := in[0].body
	m := body.m
	out := map[string]float64{}
	// Each measurement repeats for a window that grows with the run, up
	// to 300 ms: enough repetitions for a steady median on full runs,
	// short enough for quick ones.
	window := min(max(cfg.seconds/64, 30*time.Millisecond), 300*time.Millisecond)

	// codec: the binary wire format's batch encoder and decoder.
	var wire bytes.Buffer
	enc, err := repeat(window, func(context.Context) error {
		wire.Reset()
		return encodeBatches(&wire, body.names, m)
	})
	if err != nil {
		return nil, err
	}
	raw := bytes.Clone(wire.Bytes())
	dec, err := repeat(window, func(context.Context) error {
		rd := codec.NewReader(bytes.NewReader(raw))
		for {
			if _, _, err := rd.ReadBatch(); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	mb := float64(len(raw)) / 1e6
	out["codec.encode_ms_per_mb"] = enc.Seconds() * 1e3 / mb
	out["codec.decode_ms_per_mb"] = dec.Seconds() * 1e3 / mb

	// engine: a fit at the daemon's worker count and at one worker.
	opts := engine.ProtectOptions{Thresholds: []core.PST{replayPST}, Seed: 1}
	engN, eng1 := engine.New(cfg.nproc, 0), engine.New(1, 0)
	fit := func(e *engine.Engine) func(context.Context) error {
		return func(ctx context.Context) error {
			_, err := e.ProtectCtx(ctx, m, opts)
			return err
		}
	}
	fitN, err := repeat(window, fit(engN))
	if err != nil {
		return nil, err
	}
	fit1, err := repeat(window, fit(eng1))
	if err != nil {
		return nil, err
	}
	out["engine.fit_ms"] = fitN.Seconds() * 1e3
	out["engine.fit_parallel_eff"] = fit1.Seconds() / (float64(cfg.nproc) * fitN.Seconds())
	fitAlloc, err := allocBytes(func() error { return fit(engN)(context.Background()) })
	if err != nil {
		return nil, err
	}
	out["engine.fit_alloc_mb"] = fitAlloc / 1e6

	// engine: the stream kernel on one served-size batch.
	res, err := engN.Protect(m, opts)
	if err != nil {
		return nil, err
	}
	sec := res.Secret()
	batch := tileRows(m, streamBatchRows)
	stream := func(e *engine.Engine) (func(context.Context) error, error) {
		sp, err := e.NewStreamProtector(sec)
		if err != nil {
			return nil, err
		}
		return func(context.Context) error {
			_, err := sp.ProtectBatch(batch)
			return err
		}, nil
	}
	streamN, err := stream(engN)
	if err != nil {
		return nil, err
	}
	stream1, err := stream(eng1)
	if err != nil {
		return nil, err
	}
	sN, err := repeat(window, streamN)
	if err != nil {
		return nil, err
	}
	s1, err := repeat(window, stream1)
	if err != nil {
		return nil, err
	}
	out["engine.stream_rows_per_s"] = streamBatchRows / sN.Seconds()
	out["engine.stream_parallel_eff"] = s1.Seconds() / (float64(cfg.nproc) * sN.Seconds())
	streamAlloc, err := allocBytes(func() error { return streamN(context.Background()) })
	if err != nil {
		return nil, err
	}
	out["engine.stream_alloc_bytes_per_row"] = streamAlloc / streamBatchRows

	// core: the reference security-range search, summed over the pairs.
	z := zscore(m)
	srange, err := repeat(window, func(context.Context) error {
		for _, p := range core.RoundRobinPairs(m.Cols()) {
			curve, err := core.NewVarianceCurve(z, p, stats.Sample)
			if err != nil {
				return err
			}
			if _, err := curve.SecurityRange(replayPST, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["core.security_range_ms"] = srange.Seconds() * 1e3
	out["core.security_range_share"] = srange.Seconds() / fit1.Seconds()

	// service: key fitting and stream opening through the key service.
	if err := replayService(engN, m, opts, window, out); err != nil {
		return nil, err
	}

	// keyring: rotating a file keyring that already holds many versions.
	if err := replayKeyring(cfg.work, sec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeBatches writes m as a binary row stream in served-size batches.
func encodeBatches(w io.Writer, names []string, m *matrix.Dense) error {
	cw := codec.NewWriter(w)
	if err := cw.WriteHeader(names, false); err != nil {
		return err
	}
	rows, cols := m.Dims()
	for lo := 0; lo < rows; lo += streamBatchRows {
		hi := min(lo+streamBatchRows, rows)
		if err := cw.WriteBatch(matrix.NewDense(hi-lo, cols, m.Raw()[lo*cols:hi*cols]), nil); err != nil {
			return err
		}
	}
	return cw.Close()
}

// tileRows returns an n-row matrix repeating m's rows in order.
func tileRows(m *matrix.Dense, n int) *matrix.Dense {
	out := matrix.NewDense(n, m.Cols(), nil)
	for i := 0; i < n; i++ {
		copy(out.RawRow(i), m.RawRow(i%m.Rows()))
	}
	return out
}

func replayService(eng *engine.Engine, m *matrix.Dense, opts engine.ProtectOptions, window time.Duration, out map[string]float64) error {
	mgr := jobs.New(jobs.Config{Workers: 1})
	defer mgr.Close()
	svc := service.New(service.Config{
		Engine:      eng,
		Keys:        keyring.NewMemory(),
		Store:       datastore.NewMemory(),
		Jobs:        mgr,
		Federations: federation.NewMemory(),
	})
	const name = "replay"
	if _, err := svc.Keys.FitProtect(context.Background(), name, service.OwnerState{}, m, opts); err != nil {
		return err
	}
	var selves []float64
	_, err := repeat(window, func(ctx context.Context) error {
		if _, err := svc.Keys.FitProtect(ctx, name, service.OwnerState{HasKey: true, HasCred: true}, m, opts); err != nil {
			return err
		}
		selves = append(selves, float64(selfUs(obs.FromContext(ctx).Tree())))
		return nil
	})
	if err != nil {
		return err
	}
	// Span trees carry whole microseconds; the mean keeps the digits.
	out["service.fit_self_ms"] = mean(selves) / 1e3
	// One open takes about a microsecond, so each timed repetition opens
	// a batch and the per-open time keeps sub-nanosecond digits.
	const opens = 100
	open, err := repeat(window, func(context.Context) error {
		for range opens {
			if _, err := svc.Keys.StreamProtector(name, ""); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["service.stream_open_us"] = float64(open.Nanoseconds()) / 1e3 / opens
	return nil
}

// replayKeyring times File.Rotate on keyrings that already hold 100 and
// 400 versions of one owner. The histories are built in memory and
// imported with one write, so only the timed rotations rewrite the file.
func replayKeyring(work string, sec engine.Secret, out map[string]float64) error {
	dir, err := os.MkdirTemp(work, "keyring-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	secret := ppclust.OwnerSecret{
		Key:           sec.Key,
		Normalization: ppclust.Normalization(sec.Normalization),
		ParamsA:       sec.ParamsA,
		ParamsB:       sec.ParamsB,
		Columns:       sec.Columns,
	}
	const name = "replay"
	mem := keyring.NewMemory()
	if _, err := mem.Create(name, secret); err != nil {
		return err
	}
	versions := 1
	for _, at := range []int{100, 400} {
		for ; versions < at; versions++ {
			if _, err := mem.Rotate(name, secret); err != nil {
				return err
			}
		}
		exp, err := mem.Export(name)
		if err != nil {
			return err
		}
		kf, err := keyring.OpenFile(filepath.Join(dir, fmt.Sprintf("keys-v%d.json", at)))
		if err != nil {
			return err
		}
		if err := kf.ImportOwner(exp); err != nil {
			return err
		}
		var ds []float64
		for range 5 {
			start := time.Now()
			if _, err := kf.Rotate(name, secret); err != nil {
				return err
			}
			ds = append(ds, time.Since(start).Seconds()*1e3)
		}
		out[fmt.Sprintf("keyring.file_rotate_ms_v%d", at)] = median(ds)
	}
	return nil
}
