//===- Reference.cpp - independent results from the host C compiler -----------===//

#include "Reference.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;

namespace e2e {
namespace {

const char *const kCompile = "gcc -O2 -ffp-contract=off";

std::string quote(const std::string &S) {
  std::string Out = "'";
  for (char C : S)
    Out += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Out + "'";
}

std::string hashHex(const std::string &Data) {
  std::uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

bool writeFile(const fs::path &P, const std::string &Text) {
  std::ofstream Out(P);
  Out << Text;
  return Out.good();
}

std::map<std::string, double> parse(const fs::path &P) {
  std::map<std::string, double> Out;
  std::ifstream In(P);
  std::string Entry;
  double V;
  while (In >> Entry >> V)
    Out[Entry] = V;
  return Out;
}

} // namespace

std::map<std::string, double> referenceResults(const std::vector<Kernel> &Ks,
                                               const std::string &Dir,
                                               std::string &Err) {
  std::string Id = kCompile;
  for (const Kernel &K : Ks)
    Id += "\n#" + K.Entry + "\n" + K.Source;
  const std::string Key = hashHex(Id);
  const fs::path Root(Dir);
  const fs::path Results = Root / ("results." + Key + ".txt");
  std::error_code EC;
  fs::create_directories(Root, EC);
  if (fs::exists(Results)) {
    std::map<std::string, double> Cached = parse(Results);
    if (Cached.size() == Ks.size())
      return Cached;
  }

  std::string Main = "#include <pthread.h>\n#include <stdio.h>\n";
  std::string Calls;
  const fs::path Binary = Root / ("ref." + Key);
  std::string Cmd = std::string(kCompile) + " -o " + quote(Binary.string());
  for (const Kernel &K : Ks) {
    const fs::path Src = Root / (K.Entry + ".c");
    if (!writeFile(Src, "#include <math.h>\n" + K.Source)) {
      Err = "cannot write " + Src.string();
      return {};
    }
    Cmd += " " + quote(Src.string());
    Main += "double " + K.Entry + "();\n";
    Calls += "  printf(\"" + K.Entry + " %.17g\\n\", " + K.Entry + "());\n";
  }
  Main += "static void *run(void *arg) {\n" + Calls +
          "  return arg;\n}\n"
          "int main(void) {\n"
          "  pthread_attr_t A;\n  pthread_t T;\n"
          "  pthread_attr_init(&A);\n"
          "  pthread_attr_setstacksize(&A, (size_t)1 << 30);\n"
          "  if (pthread_create(&T, &A, run, 0))\n    return 1;\n"
          "  pthread_join(T, 0);\n  return 0;\n}\n";
  const fs::path MainSrc = Root / "main.c";
  if (!writeFile(MainSrc, Main)) {
    Err = "cannot write " + MainSrc.string();
    return {};
  }
  const fs::path Log = Root / "gcc.log";
  Cmd += " " + quote(MainSrc.string()) + " -lm -lpthread > " +
         quote(Log.string()) + " 2>&1";
  if (std::system(Cmd.c_str()) != 0) {
    Err = "reference build failed (see " + Log.string() + ")";
    return {};
  }
  const fs::path Tmp = Root / ("results." + Key + ".tmp");
  std::string Run = quote(Binary.string()) + " > " + quote(Tmp.string());
  if (std::system(Run.c_str()) != 0) {
    Err = "reference run failed";
    return {};
  }
  std::map<std::string, double> Out = parse(Tmp);
  if (Out.size() != Ks.size()) {
    Err = "reference printed " + std::to_string(Out.size()) + " of " +
          std::to_string(Ks.size()) + " results";
    return {};
  }
  fs::rename(Tmp, Results, EC);
  return Out;
}

} // namespace e2e
