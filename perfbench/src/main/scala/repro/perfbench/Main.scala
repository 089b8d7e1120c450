package repro.perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.Row

import repro.core.{ExactLocation, SparcleParams}

/** Command-line settings of one benchmark run. */
final case class Config(
    workload: Workload,
    seed: Long = Workloads.DefaultSeed,
    seconds: Double = 20,
    trace: Boolean = false,
    scale: Double = 1.0,
    setups: Int = 3,
    outDir: File = new File("perfbench/out"),
    checkTable4: Boolean = false,
) {
  /** Published data at published size: the Table 4 figures apply. */
  def published: Boolean = seed == Workloads.DefaultSeed && scale == 1.0
}

object Config {
  val Usage: String =
    "usage: --workload <" + Workloads.All.map(_.name).mkString("|") + "> [--seed N] " +
      "[--seconds S] [--trace 0|1] [--out DIR] [--check-table4]\n" +
      "       --compare <base reports dir> <new reports dir>"

  def parse(args: List[String]): Either[String, Config] = {
    def go(rest: List[String], acc: Map[String, String]): Either[String, Map[String, String]] =
      rest match {
        case Nil => Right(acc)
        case "--check-table4" :: t => go(t, acc + ("check-table4" -> "1"))
        case k :: v :: t if k.startsWith("--") => go(t, acc + (k.drop(2) -> v))
        case other => Left(s"bad arguments: ${other.mkString(" ")}")
      }
    go(args, Map.empty).flatMap { m =>
      val known = Set("workload", "seed", "seconds", "trace", "out", "check-table4")
      m.keySet.diff(known).headOption match {
        case Some(k) => Left(s"unknown option --$k")
        case None =>
          m.get("workload").flatMap(Workloads.byName) match {
            case None => Left(s"unknown or missing --workload: ${m.getOrElse("workload", "")}")
            case Some(w) =>
              try {
                val trace = m.get("trace").contains("1")
                val c = Config(
                  w,
                  seed = m.get("seed").map(_.toLong).getOrElse(Workloads.DefaultSeed),
                  seconds = m.get("seconds").map(_.toDouble).getOrElse(20.0),
                  trace = trace,
                  // The traced run reports no set-up time, so it sets up once.
                  setups = if (trace) 1 else 3,
                  outDir = new File(m.getOrElse("out", "perfbench/out")),
                  checkTable4 = m.contains("check-table4"),
                )
                if (c.seed < 0 || c.seconds <= 0) Left(s"bad values in $c") else Right(c)
              } catch { case e: NumberFormatException => Left(s"bad number: ${e.getMessage}") }
          }
      }
    }
  }
}

/** A named metric with its unit, as printed and written. */
final case class Metric(name: String, value: Double, unit: String)

/** The result line and report of one run. */
final case class RunResult(metrics: Seq[Metric], attempted: Long, failed: Long,
                           problems: Seq[String], notes: Seq[(String, String)]) {
  def correct: Boolean = problems.isEmpty

  def line: String = Json.obj(Seq(
    "correct" -> correct.toString,
    "attempted" -> attempted.toString,
    "failed" -> failed.toString,
    "metrics" -> Json.obj(metrics.map(m =>
      m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))),
  ))
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Prints each metric by name with its unit, then, as the last line of
  * standard output, one JSON object with `correct`, `attempted`, `failed`
  * and `metrics`. Exits 0 when the run completed, whatever its checks say.
  */
object Main {

  def main(args: Array[String]): Unit = {
    if (args.headOption.contains("--compare")) { Compare.main(args.tail); return }
    val cfg = Config.parse(args.toList) match {
      case Right(c) => c
      case Left(msg) => Console.err.println(s"$msg\n${Config.Usage}"); sys.exit(2)
    }
    val result = Runs.run(cfg)
    cfg.outDir.mkdirs()
    val stem = s"${cfg.workload.name}-seed${cfg.seed}-trace${if (cfg.trace) 1 else 0}"
    val report = new PrintWriter(new File(cfg.outDir, s"$stem.json"), "UTF-8")
    try report.println(Json.obj(Seq(
      "environment" -> Json.obj(result.notes.map { case (k, v) => k -> Json.str(v) }),
      "problems" -> result.problems.map(Json.str).mkString("[", ",", "]"),
      "result" -> result.line)))
    finally report.close()
    result.notes.foreach { case (k, v) => println(s"env $k = $v") }
    result.problems.foreach(p => println(s"PROBLEM $p"))
    result.metrics.foreach(m => println(f"metric ${m.name}%-32s ${m.value}%14.6f ${m.unit}"))
    println(result.line)
    sys.exit(0)
  }
}

/** The three kinds of run: timed passes (`--trace 0`), the traced run
  * (`--trace 1`) and the full Table 4 check (`--check-table4`).
  */
object Runs {
  import Cleaner._

  private val t0 = java.lang.System.nanoTime()

  /** Progress on standard error, with seconds since the run began. */
  def phase(what: String): Unit =
    Console.err.println(f"perfbench ${(java.lang.System.nanoTime() - t0) / 1e9}%7.1f s  $what")

  def run(cfg: Config): RunResult = {
    val setups = ArrayBuffer.empty[(Double, Double)]
    var session: Session = null
    (1 to cfg.setups).foreach { _ =>
      if (session != null) session.stop()
      val (s, total, gen) = Session.start(cfg)
      session = s
      setups += ((total, gen))
    }
    phase(s"${cfg.setups} set-ups done")
    val b = new Bench(cfg, session)
    val problems = ArrayBuffer.empty[String]
    val env = environment(cfg, b)
    val threads = b.s.sc.defaultParallelism
    if (threads > Runtime.getRuntime.availableProcessors)
      problems += s"$threads task threads exceed ${Runtime.getRuntime.availableProcessors} processors"
    if (cfg.seed == Workloads.DefaultSeed) problems ++= checkPublished(b)
    phase("inputs checked")

    val res =
      if (cfg.checkTable4) table4(b)
      else if (cfg.trace) traced(b, setups.map(_._2).toSeq)
      else timed(b, setups.map(_._1).toSeq)
    b.s.tracer.write(new File(cfg.outDir,
      s"${cfg.workload.name}-seed${cfg.seed}-trace${if (cfg.trace) 1 else 0}.spans.jsonl"))
    b.s.stop()
    phase("done")
    res.copy(problems = problems.toSeq ++ res.problems, notes = env)
  }

  /** Seed 0 must reproduce the published `Datasets.*` records exactly
    * (checked at published size only).
    */
  def checkPublished(b: Bench): Seq[String] =
    if (b.cfg.scale != 1.0) Nil
    else {
      val pub = b.cfg.workload.published(b.s.spark)
      def rows(df: org.apache.spark.sql.DataFrame): Seq[Row] = df.collect().toSeq.sortBy(_.getLong(0))
      Seq(
        if (rows(pub.records) == rows(b.s.ds.records)) None
        else Some(s"seed 0 records differ from Datasets' ${pub.name}"),
        if (rows(pub.truth) == rows(b.s.ds.truth)) None
        else Some(s"seed 0 truth differs from Datasets' ${pub.name}"),
      ).flatten
    }

  def environment(cfg: Config, b: Bench): Seq[(String, String)] = {
    val sc = b.s.sc
    Seq(
      "workload" -> cfg.workload.name,
      "seed" -> cfg.seed.toString,
      "scale" -> cfg.scale.toString,
      "git_sha" -> sys.env.getOrElse("PERFBENCH_GIT_SHA", "unknown"),
      "source_sha1" -> sys.env.getOrElse("PERFBENCH_SOURCE_SHA1", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "spark_master" -> sc.master,
      "task_threads" -> sc.defaultParallelism.toString,
      "shuffle_partitions" -> b.s.spark.conf.get("spark.sql.shuffle.partitions"),
      "spark_version" -> sc.version,
      "jvm" -> s"${java.lang.System.getProperty("java.vm.name")} ${java.lang.System.getProperty("java.version")}",
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "records" -> b.s.ds.records.count().toString,
    )
  }

  private def median(xs: Seq[Double]) = Stats.median(xs)

  /** Cache-hygiene and output checks of a call against the same call of
    * the first pass: same repairs, and the same Spark job and task counts
    * (a call that runs fewer has hit a cache a previous call left behind).
    * Counts are compared only for calls that met no empty shuffle: there,
    * adaptive execution legitimately runs or skips stages depending on
    * which finished first.
    */
  def checkAgainst(first: CallRecord, c: CallRecord): Option[String] =
    c.failure.orElse {
      val comparable = first.counts.emptyStages == 0 && c.counts.emptyStages == 0
      if (c.digest != first.digest)
        Some(s"pass ${c.pass} ${c.name}: repair digest ${c.digest} != ${first.digest}")
      else if (comparable && (c.counts.jobs != first.counts.jobs || c.counts.tasks != first.counts.tasks))
        Some(s"pass ${c.pass} ${c.name}: ${c.counts.jobs} jobs / ${c.counts.tasks} tasks, " +
             s"first pass ${first.counts.jobs} / ${first.counts.tasks} (cache hit?)")
      else None
    }

  /** Equal to Table 4's three printed decimals, or the same abort marker. */
  def sameF1(have: Either[String, Double], want: Either[String, Double]): Boolean =
    (have, want) match {
      case (Right(h), Right(e)) => math.abs(h - e) < 0.0005
      case (Left(h), Left(e)) => h == e
      case _ => false
    }

  /** Untraced timing: one cold pass, then warm passes for `--seconds`. */
  def timed(b: Bench, setupTimes: Seq[Double]): RunResult = {
    val cfg = b.cfg
    val w = cfg.workload
    val first = b.pass(1)
    phase("cold pass done")
    val warm = ArrayBuffer.empty[Seq[CallRecord]]
    val t0 = java.lang.System.nanoTime()
    def elapsed = (java.lang.System.nanoTime() - t0) / 1e9
    def passTime(p: Seq[CallRecord]) = p.map(_.seconds).sum
    do warm += b.pass(warm.size + 2)
    while (elapsed + median(warm.map(passTime).toSeq) <= cfg.seconds)

    phase(s"${warm.size} warm passes done")
    val all = first +: warm.toSeq
    val failures = all.flatten.flatMap(c => checkAgainst(first.find(_.name == c.name).get, c).map(c -> _))
    val problems = ArrayBuffer.empty[String] ++ failures.map(_._2)

    // F1 from the last pass, outside every timed window: Sparcle's always
    // (it is a metric), every system's where Table 4 applies.
    val last = all.last
    val f1: Map[Cleaner, Double] = last.filter(c => c.failure.isEmpty && (c.cleaner == SparcleN2 || cfg.published))
      .flatMap(c => c.outcome match {
        case Repaired(rows) => Some(c.cleaner -> b.f1(Map(w.attr -> rows)))
        case Aborted(_) => None
      }).toMap
    if (cfg.published) w.systems.foreach { sys =>
      val got: Either[String, Double] = last.find(_.cleaner == sys).get.outcome match {
        case Aborted(m) => Left(m)
        case Repaired(_) => Right(f1(sys))
      }
      val want = w.table4(w.attr)(sys)
      if (!sameF1(got, want)) problems += s"${sys.key} F1 on ${w.attr} is $got, Table 4 has $want"
    }

    def sysSeconds(sys: Cleaner): Double = median(warm.map(_.filter(_.cleaner == sys).map(_.seconds).sum).toSeq)
    phase("F1 done")
    val records = b.s.ds.records.count().toDouble
    val cells = records * w.systems.size
    val metrics = Seq(
      Metric("setup_s", median(setupTimes), "s"),
      Metric("cells_per_s", cells / median(warm.map(passTime).toSeq), "cells/s"),
      Metric("sparcle_s", sysSeconds(SparcleN2), "s"),
      Metric("f1_sparcle", f1.getOrElse(SparcleN2, 0.0), "F1"),
      Metric("leaked_cache_mb", median(all.map(_.map(_.leakedMb).sum)), "MB"),
    )
    val attempted = all.map(_.size).sum
    printCalls(all.flatten)
    for (sys <- w.systems; (p, v) <- Stats.tail(warm.flatMap(_.filter(_.cleaner == sys).map(_.seconds)).toSeq))
      println(f"info ${sys.key}_s p$p%.1f $v%.3f s")
    println(f"info warm_passes ${warm.size}  failed_frac ${failures.size.toDouble / attempted}%.4f  " +
      f"first_pass_s ${passTime(first)}%.3f  holo_s ${sysSeconds(Holo)}%.3f  baran_s ${sysSeconds(Baran)}%.3f  " +
      w.systems.map(s => s"f1_${s.key}=${f1.get(s).map(v => f"$v%.3f").getOrElse("-")}").mkString("  "))
    RunResult(metrics, attempted, failures.size, problems.toSeq, Nil)
  }

  def printCalls(calls: Seq[CallRecord]): Unit = calls.foreach { c =>
    println(f"call pass=${c.pass} ${c.name}%-20s ${c.seconds}%8.3f s jobs=${c.counts.jobs} " +
      f"tasks=${c.counts.tasks} empty_stages=${c.counts.emptyStages} leaked=${c.leakedMb}%.2f MB digest=${c.digest.take(12)}" +
      c.failure.map(f => s" FAILED $f").getOrElse(""))
  }

  /** Traced run: a cold untraced pass, an untraced Sparcle call as the
    * reference for the tracing overhead, then the traced pass with one span
    * per layer.
    */
  def traced(b: Bench, genTimes: Seq[Double]): RunResult = {
    val t = b.s.tracer
    val first = b.pass(1)
    val reference = b.call(2, "sparcle", SparcleN2)(b.run(SparcleN2))
    phase("untraced calls done")

    var staged: StagedSparcle = null
    var stagedCall = 0L
    val sparcle = b.call(3, "sparcle", SparcleN2) {
      stagedCall = b.currentCall
      staged = StagedSparcle.run(b, stagedCall, b.sparcle(2))
      staged.outcome
    }
    if (staged == null) {
      printCalls(first :+ reference :+ sparcle)
      return RunResult(Nil, first.size + 2L, 1L, sparcle.failure.toSeq, Nil)
    }
    // Row counts read from the frames the call left cached, in a span of
    // their own outside every layer.
    val (candidates, labelled, formulated) = t.span("counts", stagedCall) {
      (staged.cand.candidates.count(), staged.cand.labels.count(), staged.scored.count())
    }._1
    val holo = b.call(3, "cleaning.holo", Holo)(b.run(Holo))
    val holoBase = b.call(3, "cleaning.holo.base", Holo) {
      Outcome.of(repro.core.Sparcle.clean(b.points, SparcleParams(ExactLocation)).repairs)
    }
    val baran = b.call(3, "cleaning.baran", Baran)(b.run(Baran))
    phase("traced pass done")

    def firstOf(sys: Cleaner) = first.find(_.cleaner == sys).get
    val checks = Seq(
      checkAgainst(firstOf(SparcleN2), reference),
      checkAgainst(firstOf(Holo), holo),
      checkAgainst(firstOf(Baran), baran),
      if (sparcle.digest == firstOf(SparcleN2).digest) None
      else Some(s"staged Sparcle repairs ${sparcle.digest} != Sparcle.clean's ${firstOf(SparcleN2).digest}"),
      holoBase.failure,
    ).flatten
    if (sparcle.counts.jobs != firstOf(SparcleN2).counts.jobs)
      println(s"warning: staged Sparcle ran ${sparcle.counts.jobs} jobs, Sparcle.clean ${firstOf(SparcleN2).counts.jobs}")

    val spans = t.spans
    def spanOf(name: String, call: Long = -1) =
      spans.find(s => s.name == name && (call < 0 || s.call == call)).get
    val callSpan = spanOf("sparcle", stagedCall)
    val records = b.s.ds.records.count().toDouble

    def layer(prefix: String, s: Span, full: Boolean = true): Seq[Metric] = {
      val c = t.inclusive(s)
      Seq(Metric(s"$prefix.s", s.seconds, "s")) ++ (if (!full) Nil else Seq(
        Metric(s"$prefix.self_s", t.selfSeconds(s), "s"),
        Metric(s"$prefix.jobs", c.jobs.toDouble, "count"),
        Metric(s"$prefix.tasks", c.tasks.toDouble, "count"),
        Metric(s"$prefix.task_s", c.taskMs / 1000.0, "s"),
        Metric(s"$prefix.shuffle_mb", c.shuffleBytes / 1048576.0, "MB"),
      ))
    }
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    val flagged = staged.flagged.toDouble
    val repairs = staged.outcome match { case Repaired(r) => r.size.toDouble; case _ => 0.0 }
    val passCalls = Seq(sparcle, holo, baran)
    val passWall = passCalls.map(_.seconds).sum
    val passCounts = passCalls.map(_.counts).reduce(_ + _)
    val passSpans = Seq(callSpan, spanOf("cleaning.holo"), spanOf("cleaning.baran"))
    val threads = b.s.sc.defaultParallelism

    val metrics =
      layer("spatialjoin", spanOf("spatialjoin", stagedCall)) ++ Seq(
        Metric("spatialjoin.rows", staged.dmRows.toDouble, "count"),
        Metric("spatialjoin.nbrs_per_record", staged.dmRows / records, "count"),
      ) ++ layer("core.detect", spanOf("core.detect", stagedCall)) ++ Seq(
        Metric("core.detect.flagged", flagged, "count"),
        Metric("core.detect.flagged_share", flagged / records, "ratio"),
      ) ++ layer("core.candgen", spanOf("core.candgen", stagedCall)) ++ Seq(
        Metric("core.candgen.candidates", candidates.toDouble, "count"),
        Metric("core.candgen.labelled", labelled.toDouble, "count"),
        Metric("core.candgen.labelled_share", ratio(labelled.toDouble, flagged), "ratio"),
      ) ++ layer("core.formulate", spanOf("core.formulate", stagedCall), full = false) ++ Seq(
        Metric("core.formulate.rows", formulated.toDouble, "count"),
      ) ++ layer("core.correct", spanOf("core.correct", stagedCall)) ++ Seq(
        Metric("core.correct.repairs", repairs, "count"),
        Metric("core.correct.repairs_per_flagged", ratio(repairs, flagged), "ratio"),
      ) ++ layer("cleaning.holo", spanOf("cleaning.holo")) ++
      layer("cleaning.holo.base", spanOf("cleaning.holo.base")) ++
      layer("cleaning.baran", spanOf("cleaning.baran")) ++ Seq(
        Metric("data.s", median(genTimes), "s"),
        Metric("data.records", records, "count"),
        Metric("spark.s", passWall, "s"),
        Metric("spark.jobs", passCounts.jobs.toDouble, "count"),
        Metric("spark.tasks", passCounts.tasks.toDouble, "count"),
        Metric("spark.task_s", passCounts.taskMs / 1000.0, "s"),
        Metric("spark.gc_s", passSpans.map(_.gcMs).sum / 1000.0, "s"),
        Metric("spark.core_util", passCounts.taskMs / 1000.0 / (passWall * threads), "ratio"),
        Metric("sparcle.traced_s", sparcle.seconds, "s"),
        Metric("sparcle.untraced_s", reference.seconds, "s"),
        Metric("sparcle.glue_s", t.selfSeconds(callSpan), "s"),
        Metric("tracing.overhead_s", sparcle.seconds - reference.seconds, "s"),
      )
    val all = first ++ Seq(reference, sparcle, holo, holoBase, baran)
    printCalls(all)
    RunResult(metrics, all.size, checks.size, checks, Nil)
  }

  /** Every attribute of the dataset with every system, once, scored
    * against Table 4 of EXPERIMENTS.md to its three printed decimals.
    */
  def table4(b: Bench): RunResult = {
    val w = b.cfg.workload
    val ds = b.s.ds
    val problems = ArrayBuffer.empty[String]
    val calls = for (attr <- ds.attrs; sys <- Cleaner.All) yield
      (attr, b.call(1, s"$attr.${sys.key}", sys)(b.run(sys, ds.points(attr), ds.truthFor(attr))))
    printCalls(calls.map(_._2))
    problems ++= calls.flatMap(_._2.failure)
    def rowsOf(c: CallRecord) = c.outcome match { case Repaired(r) => Right(r); case Aborted(m) => Left(m) }
    val got: Map[String, Map[Cleaner, Either[String, Double]]] = {
      val perAttr = ds.attrs.map { a =>
        a -> Cleaner.All.map { sys =>
          sys -> rowsOf(calls.find(c => c._1 == a && c._2.cleaner == sys).get._2).map(r => b.f1(Map(a -> r)))
        }.toMap
      }.toMap
      val overall = Cleaner.All.map { sys =>
        val rs = ds.attrs.map(a => a -> rowsOf(calls.find(c => c._1 == a && c._2.cleaner == sys).get._2))
        sys -> (rs.collectFirst { case (_, Left(m)) => m } match {
          case Some(m) => Left(m)
          case None => Right(b.f1(rs.map { case (a, r) => a -> r.toOption.get }.toMap))
        })
      }.toMap
      perAttr + ("Overall" -> overall)
    }
    for ((row, bySys) <- w.table4; (sys, want) <- bySys) {
      val have = got(row)(sys)
      val ok = sameF1(have, want)
      println(f"table4 $row%-8s ${sys.key}%-11s have ${have.fold(identity, v => f"$v%.3f")}%6s " +
        s"want ${want.fold(identity, v => f"$v%.3f")}${if (ok) "" else "  MISMATCH"}")
      if (!ok) problems += s"Table 4 $row ${sys.key}: have $have, want $want"
    }
    RunResult(Nil, calls.size, calls.count(_._2.failure.isDefined), problems.toSeq, Nil)
  }
}
