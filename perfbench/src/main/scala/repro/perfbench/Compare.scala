package repro.perfbench

import java.io.File

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}

/** Compares two sets of untraced run reports (the `-trace0.json` files, one
  * directory per commit) under the bounds of BENCHMARK.json: for each
  * workload and end-to-end metric, the medians, how much worse the second
  * set is, and whether that stays within the bound. A metric whose base
  * spread exceeds its bound is reported as unresolved.
  */
object Compare {
  private val mapper = new ObjectMapper()

  final case class Bound(name: String, lowerIsBetter: Boolean, bound: Double)

  def bounds(benchmarkJson: File): Seq[Bound] =
    mapper.readTree(benchmarkJson).get("end_to_end").elements().asScala.map { m =>
      Bound(m.get("name").asText, m.get("better").asText == "lower", m.get("bound").asDouble)
    }.toSeq

  /** Metric values per (workload, metric) over the untraced reports in `dir`. */
  def values(dir: File): Map[(String, String), Seq[Double]] = {
    val reports = Option(dir.listFiles).getOrElse(Array.empty[File])
      .filter(f => f.getName.endsWith("-trace0.json")).toSeq
    reports.flatMap { f =>
      val r: JsonNode = mapper.readTree(f)
      val w = r.get("environment").get("workload").asText
      r.get("result").get("metrics").properties().asScala.map(e => (w, e.getKey) -> e.getValue.get("value").asDouble)
    }.groupMap(_._1)(_._2)
  }

  /** One line per workload and metric; `false` when any metric regressed. */
  def report(bs: Seq[Bound], base: Map[(String, String), Seq[Double]],
             now: Map[(String, String), Seq[Double]]): (Seq[String], Boolean) = {
    val rows = for {
      w <- base.keys.map(_._1).toSeq.distinct.sorted
      b <- bs
      xs <- base.get((w, b.name)).toSeq
      ys <- now.get((w, b.name)).toSeq
    } yield {
      val worse = Stats.worsening(Stats.median(xs), Stats.median(ys), b.lowerIsBetter)
      val spread = if (xs.size >= 2) Stats.spread(xs) else Double.NaN
      val verdict =
        if (Stats.withinBound(xs, ys, b.lowerIsBetter, b.bound)) "ok"
        else if (spread > b.bound) "unresolved"
        else "REGRESSED"
      (f"$w%-14s ${b.name}%-16s base ${Stats.median(xs)}%12.4f  now ${Stats.median(ys)}%12.4f  " +
        f"worse ${worse * 100}%+7.2f%%  bound ${b.bound * 100}%5.1f%%  base spread ${spread * 100}%6.2f%%  $verdict",
       verdict == "REGRESSED")
    }
    (rows.map(_._1), !rows.exists(_._2))
  }

  def main(args: Array[String]): Unit = args.toList match {
    case List(base, now) =>
      val (lines, ok) = report(bounds(new File("BENCHMARK.json")), values(new File(base)), values(new File(now)))
      lines.foreach(println)
      sys.exit(if (ok) 0 else 1)
    case _ =>
      Console.err.println("usage: --compare <base reports dir> <new reports dir>")
      sys.exit(2)
  }
}
