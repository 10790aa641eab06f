package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/report"
	"repro/internal/workload"
)

// pipelineEnv is the pipeline workload's set-up.
type pipelineEnv struct {
	train, test []*workload.Model
	space       hw.SpaceSpec
	buildS, hwS float64
}

// setupPipeline builds the 13 training and 6 test nets and the paper space.
func setupPipeline() (*pipelineEnv, error) {
	start := time.Now()
	env := &pipelineEnv{train: workload.TrainingSet(), test: workload.TestSet()}
	built := time.Now()
	env.space = hw.PaperSpace()
	if err := env.space.Validate(); err != nil {
		return nil, err
	}
	env.buildS, env.hwS = built.Sub(start).Seconds(), time.Since(built).Seconds()
	return env, nil
}

// iterRun is what one pipeline iteration cost and did.
type iterRun struct {
	train, test, render time.Duration
	evals               eval.Stats
}

// pipelineIteration does what `claire` does on a cold engine: Train on the
// training nets, Test on the test nets, render Tables I-VI and Figures 2-4.
// It returns the rendered text.
func (b *bench) pipelineIteration(env *pipelineEnv) (string, iterRun, error) {
	var run iterRun
	req := b.nextReq()
	root := b.tr.begin("bench.pipeline", -1, req)
	defer b.tr.end(root)
	o := core.DefaultOptions()
	o.Space = env.space
	o.Evaluator = eval.New(eval.Options{Workers: b.nproc})

	start := time.Now()
	sp := b.tr.begin("core.Train", root, req)
	tr, err := core.Train(env.train, o)
	b.tr.end(sp)
	if err != nil {
		return "", run, fmt.Errorf("train: %w", err)
	}
	trained := time.Now()
	sp = b.tr.begin("core.Test", root, req)
	tt, err := core.Test(tr, env.test, o)
	b.tr.end(sp)
	if err != nil {
		return "", run, fmt.Errorf("test: %w", err)
	}
	tested := time.Now()
	sp = b.tr.begin("report.render", root, req)
	var sb strings.Builder
	for _, s := range []string{
		report.TableI(tr.Models), report.TableII(tr), report.TableIII(tr, tt),
		report.TableIV(tr), report.TableV(tr, tt), report.TableVI(tr, tt),
		report.Figure2(tr.Models, 12),
	} {
		sb.WriteString(s)
	}
	before, after := report.Figure3(tr)
	sb.WriteString(before)
	sb.WriteString(after)
	sb.WriteString(report.Figure4(tr, tt))
	b.tr.end(sp)
	run.train, run.test, run.render = trained.Sub(start), tested.Sub(trained), time.Since(tested)
	run.evals = o.Evaluator.Stats()
	return sb.String(), run, nil
}

// digest is the hex SHA-256 of the rendered pipeline output.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// runPipeline is the pipeline workload: a closed loop of iterations, each on
// a cold engine, each checked byte for byte (by digest) against the oracle.
// The inputs are the paper's fixed sets, so the seed changes nothing here.
func runPipeline(b *bench, exp *expected) (e2e, error) {
	env, setupS, err := timeSetup(setupPipeline, nil)
	if err != nil {
		return e2e{}, err
	}
	b.setLayer("workload.build_s", "s", env.buildS)
	b.setLayer("hw.space_build_s", "s", env.hwS)

	var iters, cpus, trainS, testS, renderS []float64
	var last iterRun
	loopStart, host := time.Now(), readHostTicks()
	deadline := loopStart.Add(b.dur)
	for len(iters) == 0 || time.Now().Before(deadline) {
		start, cpu := time.Now(), cpuTime()
		text, run, err := b.pipelineIteration(env)
		if err == nil && digest(text) != exp.PipelineSHA256 {
			err = fmt.Errorf("pipeline output digest %s, want %s", digest(text), exp.PipelineSHA256)
		}
		b.op(err)
		iters = append(iters, time.Since(start).Seconds()*1000)
		cpus = append(cpus, float64(cpuTime()-cpu)/1e6)
		trainS = append(trainS, run.train.Seconds())
		testS = append(testS, run.test.Seconds())
		renderS = append(renderS, run.render.Seconds())
		last = run
	}

	if b.tr != nil {
		b.setLayer("core.train_s", "s", median(trainS))
		b.setLayer("core.test_s", "s", median(testS))
		b.setLayer("report.render_s", "s", median(renderS))
		setEvalLayer(b, last.evals)
	}
	loopS := unstolen(time.Since(loopStart), host, readHostTicks())
	p50 := median(iters)
	tl, label := tail(iters)
	info("pipeline: %d iterations; pipeline_s p50 %.4f s, %s %.4f s; CPU per iteration p50 %.2f ms; %.4f s per iteration with host steal removed",
		len(iters), p50/1000, label, tl/1000, median(cpus), loopS/float64(len(iters)))
	return e2e{setupS: setupS, cpuMS: median(cpus), throughput: float64(len(iters)) / loopS, wallP50MS: p50, wallTailMS: tl}, nil
}
